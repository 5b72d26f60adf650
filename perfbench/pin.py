"""Regenerate ``pins.json``: output digests of every workload on the
default seed.

Run from the repository root, only after a change that is meant to
change simulated results::

    python3 perfbench/pin.py [workload ...]
"""

from __future__ import annotations

import json
import sys

import run
from workloads import DEFAULT_SEED, PINS_PATH, WORKLOADS, digest, load_pins

PIN_REASON = "digest differs from the pinned digest"


def main(argv: list[str]) -> int:
    names = argv or list(WORKLOADS)
    run.WORK_DIR.mkdir(exist_ok=True)
    pins = load_pins()
    for name in names:
        cls = WORKLOADS[name]
        run.isolate_environment(cls.env)
        run.import_program()
        rep, _ = run.run_rep(cls(DEFAULT_SEED), DEFAULT_SEED, 1,
                             run.HostSpeed())
        broken = {op: [r for r in reasons if r != PIN_REASON]
                  for op, reasons in rep.failures.items()}
        broken = {op: reasons for op, reasons in broken.items() if reasons}
        if broken:
            run.report_failures(broken)
            return 1
        pins[name] = {op: digest(out) for op, out in sorted(rep.outputs.items())}
        print(f"{name}: {len(pins[name])} operations pinned", file=sys.stderr)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
