"""Opt-in cross-layer telemetry: windowed metrics + event tracing.

The observability layer of DESIGN.md section 12.  Three pieces:

* :mod:`repro.telemetry.windows` -- the windowed counter-delta schema
  (every energy-priced counter, per fixed slice of simulated time);
* :mod:`repro.telemetry.trace` -- a bounded ring-buffer event trace
  with Chrome/Perfetto trace-event export;
* :mod:`repro.telemetry.collector` -- the attachment machinery,
  mirroring the sanitizer's opt-in pattern: ``RunSpec(telemetry=True)``,
  ``repro --telemetry``, or ``REPRO_TELEMETRY=1``; exactly zero cost
  (not even an import) when off, byte-identical simulation when on.

``repro trace <run>`` and ``repro top <run>``
(:mod:`repro.telemetry.inspect`) read the artifacts back.

This package root stays import-light on purpose: the inspection CLI
must list runs without dragging in the simulator.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.telemetry.collector import TelemetryCollector, TelemetryConfig
from repro.telemetry.trace import TRACE_SCHEMA_VERSION, TraceBuffer, to_perfetto
from repro.telemetry.windows import TELEMETRY_SCHEMA_VERSION, WINDOW_SCHEMA

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "TelemetryCollector",
    "TelemetryConfig",
    "TraceBuffer",
    "WINDOW_SCHEMA",
    "telemetry_root",
    "to_perfetto",
]


def telemetry_root() -> Path:
    """Where run telemetry directories live.

    ``REPRO_TELEMETRY_DIR`` names the root outright; otherwise
    artifacts sit next to the result store (``REPRO_TELEMETRY_DIR``
    unset: ``<REPRO_CACHE_DIR or .repro_cache>/telemetry``).
    """
    override = os.environ.get("REPRO_TELEMETRY_DIR")
    if override:
        return Path(override)
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache")) / "telemetry"
