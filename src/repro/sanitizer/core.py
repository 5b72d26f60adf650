"""The cross-layer runtime sanitizer.

One :class:`Sanitizer` is a probe of one :class:`ManycoreSystem`,
attached at construction time (``ManycoreSystem(config,
sanitize=True)``), and checks invariants *while the simulation runs*:

================== ====================================================
invariant           meaning
================== ====================================================
``swmr``            single-writer/multiple-reader: at most one MODIFIED
                    copy of a line, and never alongside SHARED copies
``l1-containment``  every L1 line resident (and state-compatible) in L2
``directory-\
consistency``       sharer lists / counts / owner match the actual
                    cache states whenever a line is quiescent
``ack-count``       a broadcast invalidation expects acks from exactly
                    the tracked sharers (ACKwise_k) or every core
                    (Dir_kB)
``seq-continuity``  per-slice broadcast sequence numbers increment by
                    one, mod 2^16, with no gaps
``delivery-order``  broadcast deliveries per (sender, receiver) arrive
                    in send order, so sequence numbers arrive in order
``broadcast-\
coverage``          a broadcast reaches every core except the sender,
                    exactly once
``time-travel``     events never dispatch before the current time and
                    packets never arrive at or before their send time
``message-\
conservation``      every scheduled protocol message is dispatched
                    exactly once; none remain at completion
``flit-\
conservation``      independently-counted injected/delivered flits
                    match the network's own statistics
``transaction-\
leak``              every SH/EX request sees a reply, every DIRTY_WB a
                    WB_ACK
``quiescence``      MSHRs, writeback buffers, sequencing buffers,
                    directory queues all empty at completion
``port-\
accounting``        no port's busy cycles exceed its reserved span
                    (catches double reservations)
``result-\
consistency``       RunResult counters internally consistent
``energy-\
accounting``        per-component energies sum to each reported total
``deadlock`` /
``livelock``        structured versions of the run-level failures
================== ====================================================

The sanitizer costs roughly 2-3x simulation wall-clock when enabled
and exactly nothing when disabled: an unsanitized system never
constructs, calls, or branches on any of this.  Its probe hooks
(``on_send``, ``on_net_send``, ``on_run_end``, ``on_run_error``) are
called by the system; its event queue and cache proxies (hooks.py) are
installed by the system next to them.
"""

from __future__ import annotations

from collections import deque

from repro.coherence.cache import CacheState
from repro.coherence.directory import Protocol
from repro.coherence.messages import CoherenceMsg, MsgType
from repro.coherence.sequencing import SEQ_MOD
from repro.network.types import BROADCAST
from repro.sanitizer.invariants import (
    directory_line_problem, energy_problems, port_problems, result_problems,
)
from repro.sanitizer.violations import InvariantViolation, describe_event
from repro.sim.eventq import _NO_ARG

#: Shadow-counted NetworkStats fields compared at end of run.
_SHADOW_KEYS = (
    "packets_sent", "unicasts_sent", "broadcasts_sent", "injected_flits",
    "received_unicast_flits", "received_broadcast_flits", "latency_count",
)

_RING_DEPTH = 10


class Sanitizer:
    """Per-system invariant checker probe (see module docstring)."""

    kind = "sanitizer"

    def __init__(self, system) -> None:
        self.system = system
        self._ring: deque = deque(maxlen=_RING_DEPTH)
        #: address -> protocol messages scheduled but not yet dispatched
        self._inflight: dict[int, int] = {}
        #: address -> outstanding SH_REQ/EX_REQ without a dispatched reply
        self._open_txn: dict[int, int] = {}
        #: address -> outstanding DIRTY_WB without a dispatched WB_ACK
        self._wb_open: dict[int, int] = {}
        #: line -> {core: L2 CacheState} for every actual holder
        self._holders: dict[int, dict[int, CacheState]] = {}
        #: slice -> last broadcast seq this sanitizer saw leave the slice
        self._bcast_sent: dict[int, int] = {}
        #: src*n_cores+dst -> last broadcast arrival time on that pair
        self._bcast_arrival: dict[int, int] = {}
        #: (address, home, expected acks) checked at end of the event
        self._deferred_acks: list[tuple[int, int, int]] = []
        #: addresses touched by the current event, checked when quiescent
        self._dirty: list[int] = []
        self._shadow = dict.fromkeys(_SHADOW_KEYS, 0)
        self._n_cores = system.topology.n_cores
        self._all_cores = frozenset(range(self._n_cores))
        self._inject_func = type(system)._inject
        self._deliver_func = type(system)._deliver_broadcast_group

    # ------------------------------------------------------------------
    # Violation plumbing
    # ------------------------------------------------------------------
    def violation(self, invariant: str, message: str,
                  details: dict | None = None) -> None:
        raise InvariantViolation(
            invariant, message,
            time=self.system.eventq.now,
            details=details,
            events=tuple(
                describe_event(t, cb, a) for t, cb, a in self._ring
            ),
            telemetry=self._telemetry_context(),
        )

    def _telemetry_context(self) -> dict | None:
        """The co-attached telemetry collector's window/trace tail, when
        the run carries one (``--sanitize --telemetry``)."""
        collector = getattr(self.system, "telemetry", None)
        if collector is None:
            return None
        try:
            return collector.violation_context()
        except Exception:  # never mask the real violation
            return None

    def record_event(self, time: int, callback, arg) -> None:
        self._ring.append((time, callback, None if arg is _NO_ARG else arg))

    # ------------------------------------------------------------------
    # Event-queue hooks (SanitizedEventQueue)
    # ------------------------------------------------------------------
    def on_schedule(self, time: int, callback, arg) -> None:
        if arg.__class__ is CoherenceMsg:
            addr = arg.address
            self._inflight[addr] = self._inflight.get(addr, 0) + 1
        elif arg.__class__ is tuple and len(arg) == 2 \
                and arg[0].__class__ is CoherenceMsg:
            addr = arg[0].address
            self._inflight[addr] = self._inflight.get(addr, 0) + 1

    def on_dispatch(self, time: int, callback, arg) -> None:
        if arg.__class__ is CoherenceMsg:
            self._consume_inflight(arg.address)
            if getattr(callback, "__func__", None) is not self._inject_func:
                mt = arg.mtype
                if mt is MsgType.SH_REP or mt is MsgType.EX_REP:
                    self._close(self._open_txn, arg.address, "transaction-leak",
                                f"{mt.name} delivered with no open transaction")
                elif mt is MsgType.WB_ACK:
                    self._close(self._wb_open, arg.address, "transaction-leak",
                                "WB_ACK delivered with no outstanding DIRTY_WB")
        elif arg.__class__ is tuple and len(arg) == 2 \
                and arg[0].__class__ is CoherenceMsg:
            self._consume_inflight(arg[0].address)
        if self._deferred_acks:
            self._check_deferred_acks()
        if self._dirty:
            dirty, self._dirty = self._dirty, []
            for addr in dirty:
                self._check_quiescent_line(addr)

    def _consume_inflight(self, addr: int) -> None:
        n = self._inflight.get(addr, 0) - 1
        if n < 0:
            self.violation(
                "message-conservation",
                f"message for line {addr} dispatched more often than scheduled",
                details={"address": addr},
            )
        elif n == 0:
            del self._inflight[addr]
        else:
            self._inflight[addr] = n
        self._dirty.append(addr)

    def _close(self, table: dict[int, int], addr: int,
               invariant: str, message: str) -> None:
        n = table.get(addr, 0) - 1
        if n < 0:
            self.violation(invariant, message, details={"address": addr})
        elif n == 0:
            del table[addr]
        else:
            table[addr] = n

    # ------------------------------------------------------------------
    # Probe hook: protocol message sent
    # ------------------------------------------------------------------
    def on_send(self, msg: CoherenceMsg, time: int) -> None:
        mt = msg.mtype
        if mt is MsgType.SH_REQ or mt is MsgType.EX_REQ:
            self._open_txn[msg.address] = self._open_txn.get(msg.address, 0) + 1
        elif mt is MsgType.DIRTY_WB:
            self._wb_open[msg.address] = self._wb_open.get(msg.address, 0) + 1
        elif mt is MsgType.INV_BCAST:
            self._check_broadcast_send(msg)

    def _check_broadcast_send(self, msg: CoherenceMsg) -> None:
        system = self.system
        home = msg.sender
        directory = system.directories[home]
        if system.config.sequencing:
            sl = system.slice_of_home(home)
            want = (self._bcast_sent.get(sl, 0) + 1) % SEQ_MOD
            stamped = system.sequencer.current_seq(sl)
            if msg.seq != want or msg.seq != stamped:
                self.violation(
                    "seq-continuity",
                    f"slice {sl} broadcast carries seq {msg.seq}; expected "
                    f"{want} (sequencer says {stamped})",
                    details={"slice": sl, "seq": msg.seq, "expected": want,
                             "address": msg.address},
                )
            self._bcast_sent[sl] = msg.seq
        if directory.protocol is Protocol.ACKWISE:
            entry = directory.entries.get(msg.address)
            expected = entry.count if entry is not None else 0
        else:
            expected = system.n_broadcast_ackers(home)
        self._deferred_acks.append((msg.address, home, expected))

    def _check_deferred_acks(self) -> None:
        # pending_acks is assigned *after* the send inside
        # _start_exclusive, so the comparison runs once the surrounding
        # event finishes (nothing else can interleave in between).
        deferred, self._deferred_acks = self._deferred_acks, []
        for addr, home, expected in deferred:
            txn = self.system.directories[home].busy.get(addr)
            if txn is None or not txn.broadcast:
                self.violation(
                    "ack-count",
                    f"broadcast for line {addr} sent outside a busy "
                    "broadcast transaction",
                    details={"address": addr, "home": home},
                )
            elif txn.pending_acks != expected:
                self.violation(
                    "ack-count",
                    f"home {home} expects {txn.pending_acks} acks for line "
                    f"{addr}; true accounting says {expected}",
                    details={"address": addr, "home": home,
                             "pending_acks": txn.pending_acks,
                             "expected": expected},
                )

    # ------------------------------------------------------------------
    # Probe hook: packet sent
    # ------------------------------------------------------------------
    def on_net_send(self, pkt, deliveries) -> None:
        t = pkt.time
        src = pkt.src
        dst = pkt.dst
        n_flits = self.system.network._n_flits_cache[pkt.size_bits]
        sh = self._shadow
        sh["packets_sent"] += 1
        sh["injected_flits"] += n_flits
        if dst == BROADCAST:
            sh["broadcasts_sent"] += 1
            sh["received_broadcast_flits"] += n_flits * len(deliveries)
            sh["latency_count"] += len(deliveries)
            got = [c for c, _ in deliveries]
            expected = self._all_cores - {src}
            if len(got) != len(expected) or set(got) != expected:
                missing = sorted(expected - set(got))[:8]
                self.violation(
                    "broadcast-coverage",
                    f"broadcast from {src} delivered to {len(got)} cores, "
                    f"expected {len(expected)} (missing e.g. {missing})",
                    details={"src": src, "delivered": len(got),
                             "expected": len(expected)},
                )
            arrivals = self._bcast_arrival
            n = self._n_cores
            for core, arrival in deliveries:
                if arrival <= t:
                    self.violation(
                        "time-travel",
                        f"broadcast sent at t={t} arrives at core {core} "
                        f"at t={arrival}",
                        details={"src": src, "dst": core, "arrival": arrival},
                    )
                key = src * n + core
                prev = arrivals.get(key, -1)
                if arrival < prev:
                    self.violation(
                        "delivery-order",
                        f"broadcast {src}->{core} arrives at t={arrival}, "
                        f"before the previous broadcast on that pair "
                        f"(t={prev}): sequence numbers would arrive out of "
                        "order",
                        details={"src": src, "dst": core,
                                 "arrival": arrival, "previous": prev},
                    )
                arrivals[key] = arrival
        else:
            sh["unicasts_sent"] += 1
            sh["received_unicast_flits"] += n_flits
            sh["latency_count"] += 1
            if len(deliveries) != 1 or deliveries[0][0] != dst:
                self.violation(
                    "broadcast-coverage",
                    f"unicast {src}->{dst} produced deliveries {deliveries!r}",
                    details={"src": src, "dst": dst},
                )
            if deliveries[0][1] <= t:
                self.violation(
                    "time-travel",
                    f"unicast sent at t={t} arrives at t={deliveries[0][1]}",
                    details={"src": src, "dst": dst,
                             "arrival": deliveries[0][1]},
                )

    # ------------------------------------------------------------------
    # Cache-proxy hooks: continuous SWMR over the holder index
    # ------------------------------------------------------------------
    def _buffered_bcast(self, core: int, line: int) -> bool:
        # A cache with a buffered broadcast invalidation for this line
        # (racing its own SH_REQ) may transiently disagree with the rest
        # of the system; the buffered invalidation is applied
        # synchronously right after the install (see _handle_sh_rep), so
        # the exemption never leaves an unchecked window.
        return line in self.system.caches[core]._pending_bcasts

    def l2_changed(self, core: int, line: int, state: CacheState) -> None:
        holders = self._holders.get(line)
        if holders is None:
            holders = self._holders[line] = {}
        if state is CacheState.MODIFIED:
            for other, s in holders.items():
                if other != core and not self._buffered_bcast(other, line):
                    self.violation(
                        "swmr",
                        f"core {core} takes line {line} MODIFIED while core "
                        f"{other} still holds it {s.name}",
                        details={"address": line, "writer": core,
                                 "holder": other, "holder_state": s.name},
                    )
        else:
            for other, s in holders.items():
                if (other != core and s is CacheState.MODIFIED
                        and not self._buffered_bcast(core, line)):
                    self.violation(
                        "swmr",
                        f"core {core} takes line {line} SHARED while core "
                        f"{other} holds it MODIFIED",
                        details={"address": line, "reader": core,
                                 "writer": other},
                    )
        holders[core] = state

    def l2_removed(self, core: int, line: int) -> None:
        holders = self._holders.get(line)
        if holders is not None:
            holders.pop(core, None)
            if not holders:
                del self._holders[line]

    # ------------------------------------------------------------------
    # Quiescent-line directory consistency
    # ------------------------------------------------------------------
    def _check_quiescent_line(self, addr: int) -> None:
        if (addr in self._inflight or addr in self._open_txn
                or addr in self._wb_open):
            return
        system = self.system
        directory = system.directories[system.home_of(addr)]
        if addr in directory.busy or addr in directory.queues:
            return
        holders = self._holders.get(addr) or {}
        problem = directory_line_problem(
            directory.entries.get(addr), holders, directory.protocol,
        )
        if problem is not None:
            self.violation(
                "directory-consistency",
                f"line {addr} (home {directory.core}): {problem}",
                details={"address": addr, "home": directory.core},
            )

    # ------------------------------------------------------------------
    # Probe hooks: run failure + end-of-run checks
    # ------------------------------------------------------------------
    def on_run_error(self, exc: RuntimeError) -> None:
        """Re-raise a deadlock or livelock as a structured violation."""
        text = str(exc)
        if text.startswith("deadlock"):
            kind = "deadlock"
        elif text.startswith("event budget exceeded"):
            kind = "livelock"
        else:
            return
        raise InvariantViolation(
            kind, text,
            time=self.system.eventq.now,
            details=self._stuck_details(),
            events=tuple(describe_event(t, cb, a) for t, cb, a in self._ring),
            telemetry=self._telemetry_context(),
        ) from exc

    def _stuck_details(self) -> dict:
        system = self.system
        busy = {}
        for d in system.directories.values():
            for addr, txn in d.busy.items():
                if len(busy) >= 4:
                    break
                busy[addr] = (
                    f"home={d.core} {txn.mtype.name} from {txn.requester} "
                    f"acks={txn.pending_acks} mem={txn.waiting_mem} "
                    f"owner={txn.waiting_owner}"
                )
        mshrs = [
            f"core {core} line {c.mshr.address}"
            f"{' (write)' if c.mshr.is_write else ''}"
            for core, c in system.caches.items() if c.mshr is not None
        ]
        return {
            "busy_lines": busy,
            "open_mshrs": mshrs[:8],
            "messages_in_flight": sum(self._inflight.values()),
        }

    def on_run_end(self, result) -> None:
        system = self.system
        if self._inflight:
            self.violation(
                "message-conservation",
                f"{sum(self._inflight.values())} protocol messages still in "
                f"flight at completion (e.g. line {next(iter(self._inflight))})",
            )
        if self._open_txn:
            self.violation(
                "transaction-leak",
                f"{len(self._open_txn)} line(s) with requests that never saw "
                f"a reply (e.g. line {next(iter(self._open_txn))})",
            )
        if self._wb_open:
            self.violation(
                "transaction-leak",
                f"{len(self._wb_open)} dirty writeback(s) never acknowledged "
                f"(e.g. line {next(iter(self._wb_open))})",
            )
        for core, cache in system.caches.items():
            leftovers = {
                "an open MSHR": cache.mshr is not None,
                "a non-empty writeback buffer": bool(cache.wb_buffer),
                "buffered broadcast invalidations": bool(cache._pending_bcasts),
                "buffered early unicasts": bool(cache._early_unicasts),
            }
            for what, bad in leftovers.items():
                if bad:
                    self.violation(
                        "quiescence",
                        f"core {core} finished with {what}",
                        details={"core": core},
                    )
        for core, directory in system.directories.items():
            if directory.busy or directory.queues:
                self.violation(
                    "quiescence",
                    f"directory at core {core} finished with "
                    f"{len(directory.busy)} busy and "
                    f"{len(directory.queues)} queued line(s)",
                    details={"core": core},
                )
        if system.config.sequencing:
            self._check_trackers()
        stats = system.network.stats.as_dict()
        for key, counted in self._shadow.items():
            if stats[key] != counted:
                self.violation(
                    "flit-conservation",
                    f"network reports {key}={stats[key]} but the sanitizer "
                    f"counted {counted}",
                    details={"counter": key, "reported": stats[key],
                             "counted": counted},
                )
        for problem in port_problems(system.network):
            self.violation("port-accounting", problem)
        for problem in result_problems(result):
            self.violation("result-consistency", problem)
        for problem in energy_problems(result, system.config):
            self.violation("energy-accounting", problem)

    def _check_trackers(self) -> None:
        # Every broadcast reaches every compute core (delivery or local
        # loopback) and is processed or stale-dropped -- both advance
        # the receiver's tracker -- so at completion each tracker must
        # agree with the sending side's final counter, wrap included.
        system = self.system
        for sl in range(system.topology.n_clusters):
            sent = system.sequencer.current_seq(sl)
            for core, cache in system.caches.items():
                seen = cache.tracker.last_seen(sl)
                if seen != sent:
                    self.violation(
                        "delivery-order",
                        f"core {core} processed broadcasts from slice {sl} "
                        f"up to seq {seen}, but the slice sent up to {sent}: "
                        "a broadcast was lost or missed",
                        details={"core": core, "slice": sl,
                                 "seen": seen, "sent": sent},
                    )
