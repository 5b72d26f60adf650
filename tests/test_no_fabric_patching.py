"""Grep-based lint: only ``ManycoreSystem`` instruments the fabric.

The sanitizer, the telemetry collector and the fault injectors observe
a run through the probe list that ``repro/sim/system.py`` owns; none
of them rebinds the live fabric.  So outside that module nothing under
``src/repro`` assigns ``.send_msg``, ``.send``, ``.arrive`` or ``.run``,
or keeps an ``_orig_*`` reference to a replaced method.  (Tests may
still patch a controller's ``.handle`` to lose or delay messages.)
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: the one module allowed to select the instrumented fabric.
ALLOWED = {SRC / "sim" / "system.py"}

PATTERNS = (
    # rebinding a fabric method: system.send_msg = ..., net.send = ...
    re.compile(r"\.(?:send_msg|send|arrive|run)\s*=(?!=)"),
    # a saved original of a replaced method
    re.compile(r"\b_orig_\w*"),
)


def test_only_the_system_instruments_the_fabric():
    assert SRC.is_dir(), SRC
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path in ALLOWED:
            continue
        for lineno, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            if any(pattern.search(line) for pattern in PATTERNS):
                offenders.append(
                    f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
                )
    assert not offenders, (
        "fabric rebinding outside repro/sim/system.py (add a probe "
        "hook to ManycoreSystem instead):\n  " + "\n  ".join(offenders)
    )
