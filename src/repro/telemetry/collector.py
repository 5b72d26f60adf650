"""The telemetry collector: opt-in, zero-cost-when-off instrumentation.

A collector is a probe of one ``ManycoreSystem`` (DESIGN.md section
12), constructed only when telemetry is requested
(``ManycoreSystem(config, telemetry=...)``, ``RunSpec(telemetry=True)``,
``repro --telemetry`` or ``REPRO_TELEMETRY=1``), so a plain run never
imports, branches on, or calls any of this.  The system calls its
hooks; none of them changes what the simulation computes:

* ``on_send`` assigns coherence transaction ids (stamped onto
  ``CoherenceMsg.txn``, which the protocol never reads) and records
  begin/end trace events;
* ``on_net_send`` records packet slices and ONet laser mode
  transitions (the growth of the network's transition counter since
  the previous packet: only a send moves it);
* ``on_barrier`` records barrier slices, first arrival to release;
* ``on_run_start`` / ``on_run_end`` open the first and close the last
  counter window.  In between, windows ride the event queue itself as
  periodic *heartbeat* events that only read state and reschedule
  themselves while the queue is non-empty, so the simulation stays
  byte-identical (heartbeats shift event sequence numbers uniformly,
  preserving every tie-break between real events).

The system calls the collector's ``on_send`` before the sanitizer's,
its ``on_net_send`` after the sanitizer's audit of the same packet,
and its ``on_run_end`` before the sanitizer's end-of-run audit, so a
violation carries the closed, priced last window.  Byte-identity with
telemetry on is pinned by ``tests/telemetry/test_telemetry.py`` and the
golden-number suite.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.coherence.messages import MsgType
from repro.network.types import BROADCAST
from repro.telemetry.trace import (
    DEFAULT_TRACE_DEPTH,
    TRACE_SCHEMA_VERSION,
    TraceBuffer,
    event_to_dict,
    trace_header,
)
from repro.telemetry.windows import (
    TELEMETRY_SCHEMA_VERSION,
    attach_window_energy,
    default_window_cycles,
    take_snapshot,
    window_between,
    windows_header,
)

#: Transaction-opening and -closing message types (begin on the request
#: leaving the L2, end on the data reply leaving the home directory).
_TXN_OPEN = (MsgType.SH_REQ, MsgType.EX_REQ)
_TXN_CLOSE = (MsgType.SH_REP, MsgType.EX_REP)


def default_trace_depth() -> int:
    """``REPRO_TELEMETRY_TRACE_DEPTH`` override, read at call time."""
    value = int(
        os.environ.get("REPRO_TELEMETRY_TRACE_DEPTH", DEFAULT_TRACE_DEPTH)
    )
    if value < 1:
        raise ValueError(f"trace depth must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class TelemetryConfig:
    """How one run's telemetry is collected and (optionally) persisted.

    ``out_dir`` of ``None`` keeps everything in memory (bare
    ``ManycoreSystem`` users, the fuzzer's timeline capture); the
    experiment layer passes the telemetry root plus the spec's content
    hash as ``run_id`` so artifacts land next to the result store.
    """

    run_id: str | None = None
    label: str = ""
    out_dir: str | Path | None = None
    #: window length in cycles; ``None`` defers to the environment.
    window_cycles: int | None = None
    #: trace ring depth; ``None`` defers to the environment.
    trace_depth: int | None = None


class TelemetryCollector:
    """Per-system metrics/trace recorder probe (see module docstring)."""

    kind = "telemetry"

    def __init__(self, system, config: TelemetryConfig | None = None) -> None:
        self.system = system
        self.config = config if config is not None else TelemetryConfig()
        self.window_cycles = (
            self.config.window_cycles
            if self.config.window_cycles is not None
            else default_window_cycles()
        )
        if self.window_cycles < 1:
            raise ValueError(
                f"telemetry window must be >= 1 cycle, got {self.window_cycles}"
            )
        self.trace = TraceBuffer(
            self.config.trace_depth
            if self.config.trace_depth is not None
            else default_trace_depth()
        )
        #: closed window records, oldest first.
        self.windows: list[dict] = []
        self._prev_snapshot = None
        #: ONet laser transitions already recorded
        self._transitions_seen = system.network.stats.onet_mode_transitions
        #: (requester core, address) -> open transaction id
        self._open_txns: dict[tuple[int, int], int] = {}
        self._next_txn = 1
        #: barrier id -> (first arrival, latest arrival) while it is open
        self._barriers: dict[int, tuple[int, int]] = {}
        self.result = None
        self.out_path: Path | None = None

    # ------------------------------------------------------------------
    # probe hooks
    # ------------------------------------------------------------------
    def on_send(self, msg, time: int) -> None:
        now = self.system.eventq.now
        ts = time if time > now else now
        mt = msg.mtype
        if mt in _TXN_OPEN:
            tid = self._next_txn
            self._next_txn += 1
            msg.txn = tid
            self._open_txns[(msg.sender, msg.address)] = tid
            self.trace.record(
                "txn_begin", ts, 0, f"{mt.name} @{msg.address}", tid,
                {"core": msg.sender, "address": msg.address},
            )
        elif mt in _TXN_CLOSE:
            tid = self._open_txns.pop((msg.dest, msg.address), None)
            if tid is not None:
                msg.txn = tid
                self.trace.record(
                    "txn_end", ts, 0, f"{mt.name} @{msg.address}", tid,
                    {"core": msg.dest, "address": msg.address},
                )

    def on_net_send(self, pkt, deliveries) -> None:
        # The injection packet is pooled (refilled per protocol message),
        # so its fields are read within this call and never retained.
        src, dst, ts = pkt.src, pkt.dst, pkt.time
        seen = self.system.network.stats.onet_mode_transitions
        transitions = seen - self._transitions_seen
        self._transitions_seen = seen
        if transitions:
            cluster_of = getattr(self.system.network, "_cluster_of_core", None)
            self.trace.record(
                "laser", ts, 0, "laser mode transition", None,
                {
                    "count": transitions,
                    "cluster": cluster_of[src] if cluster_of else None,
                },
            )
        last_arrival = ts
        for _, arrival in deliveries:
            if arrival > last_arrival:
                last_arrival = arrival
        if dst == BROADCAST:
            self.trace.record(
                "bcast", ts, last_arrival - ts, f"bcast<{src}", None,
                {"src": src, "receivers": len(deliveries)},
            )
        else:
            self.trace.record(
                "pkt", ts, last_arrival - ts, f"pkt {src}->{dst}", None,
                {"src": src, "dst": dst, "bits": pkt.size_bits},
            )

    #: aliases: a plain system's ``send_msg`` must be neither
    _send_msg = on_send
    _net_send = on_net_send

    def on_barrier(self, barrier_id: int, now: int, released: bool) -> None:
        first, latest = self._barriers.pop(barrier_id, (now, now))
        if now > latest:
            latest = now
        if not released:
            self._barriers[barrier_id] = (first, latest)
            return
        barriers = self.system.barriers
        end = latest + barriers.release_latency
        self.trace.record(
            "barrier", first, end - first, f"barrier {barrier_id}", None,
            {"id": barrier_id, "participants": barriers.participants},
        )

    def on_run_start(self) -> None:
        eventq = self.system.eventq
        self._prev_snapshot = take_snapshot(self.system, eventq.now)
        eventq.schedule(eventq.now + self.window_cycles, self._heartbeat)

    def _heartbeat(self, now: int) -> None:
        """Close one window; re-arm while the simulation is still live.

        An empty heap after this pop means no event can ever fire again
        (events beget events), so not rescheduling is exactly the
        end-of-run condition -- heartbeats never keep a finished or
        deadlocked simulation artificially alive.
        """
        system = self.system
        cur = take_snapshot(system, now)
        self.windows.append(
            window_between(self._prev_snapshot, cur, len(system.eventq))
        )
        self._prev_snapshot = cur
        if len(system.eventq) > 0:
            system.eventq.schedule(now + self.window_cycles, self._heartbeat)

    def on_run_end(self, result) -> None:
        """Close the final partial window, price windows, persist."""
        self.result = result
        system = self.system
        cur = take_snapshot(system, system.eventq.now)
        prev = self._prev_snapshot
        if prev is not None and (
            cur.t > prev.t or cur.net != prev.net or cur.caches != prev.caches
        ):
            self.windows.append(window_between(prev, cur, 0))
            self._prev_snapshot = cur
        attach_window_energy(self.windows, result, system.config)
        if self.config.out_dir is not None:
            self.out_path = self._write(result)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _write(self, result) -> Path:
        run_id = self.config.run_id or "adhoc"
        out = Path(self.config.out_dir) / run_id
        out.mkdir(parents=True, exist_ok=True)
        meta = {
            "schema": TELEMETRY_SCHEMA_VERSION,
            "trace_schema": TRACE_SCHEMA_VERSION,
            "run_id": run_id,
            "label": self.config.label,
            "app": result.app,
            "network": result.network,
            "n_cores": result.n_cores,
            "n_compute_cores": result.n_compute_cores,
            "completion_cycles": result.completion_cycles,
            "freq_hz": result.freq_hz,
            "window_cycles": self.window_cycles,
            "n_windows": len(self.windows),
            "trace": trace_header(self.trace),
        }
        (out / "meta.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n"
        )
        with (out / "windows.jsonl").open("w", encoding="utf-8") as fh:
            fh.write(_dumps(windows_header(self.window_cycles)) + "\n")
            for window in self.windows:
                fh.write(_dumps(window) + "\n")
        with (out / "trace.jsonl").open("w", encoding="utf-8") as fh:
            fh.write(_dumps(trace_header(self.trace)) + "\n")
            for event in self.trace.events():
                fh.write(_dumps(event_to_dict(event)) + "\n")
        return out

    # ------------------------------------------------------------------
    # violation context (sanitizer / fuzzer integration)
    # ------------------------------------------------------------------
    def violation_context(self, n_windows: int = 8,
                          n_events: int = 64) -> dict:
        """The last windows + trace tail, for ``InvariantViolation`` and
        fuzz reproducers.  Works mid-run (deadlocks included): the
        currently open window is closed ephemerally, without mutating
        collector state."""
        windows = list(self.windows[-n_windows:])
        prev = self._prev_snapshot
        if prev is not None:
            cur = take_snapshot(self.system, self.system.eventq.now)
            if cur.t > prev.t or cur.net != prev.net:
                windows.append(
                    window_between(prev, cur, len(self.system.eventq))
                )
                windows = windows[-n_windows:]
        return {
            "schema": TELEMETRY_SCHEMA_VERSION,
            "window_cycles": self.window_cycles,
            "windows": windows,
            "trace_tail": self.trace.tail(n_events),
            "trace_dropped": self.trace.dropped,
        }


def _dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
