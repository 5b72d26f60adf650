"""Deterministic fault injection for sanitizer validation.

Each injector corrupts one layer of an already-constructed system in a
way the protocol itself tolerates silently (no crash, no hang in the
un-sanitized simulator for stale-sharer/double-reserve) but that the
sanitizer must flag.  They exist to prove the sanitizer *catches*
real classes of bugs -- the fuzzer's ``--inject`` mode and
``tests/sanitizer/test_fault_injection.py`` are built on them.

Every injector returns a small state dict whose ``"fired"`` entry
records whether the fault actually triggered during the run; a fuzz
case where the fault never fires is simply uninteresting, not a miss.

Fabric faults (drop-ack, double-reserve on a mesh) are probes of kind
``"fault"``.  stale-sharer instead wraps each directory's
``_add_sharer``: it models a bit flip in a sharer vector, not a fabric
event, and no probe hook sees the nth sharer add that it corrupts.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.coherence.messages import CoherenceMsg, MsgType
from repro.network.engine import PortResource

#: Injectable fault names (CLI vocabulary).
FAULTS = ("drop-ack", "stale-sharer", "double-reserve")


def inject_fault(system, fault: str, nth: int = 1) -> dict:
    """Arm ``fault`` on ``system``; returns its mutable state dict.

    ``system`` must be built with ``sanitize=True`` -- nothing else
    audits the fault -- and not yet run.  ``nth`` selects which
    opportunity triggers (1-based).
    """
    if nth < 1:
        raise ValueError(f"nth must be >= 1, got {nth}")
    if system.sanitizer is None:
        raise ValueError(
            f"inject_fault({fault!r}) needs a system built with "
            "sanitize=True: without the sanitizer nothing reports the fault"
        )
    if fault == "drop-ack":
        return _drop_ack(system, nth)
    if fault == "stale-sharer":
        return _stale_sharer(system, nth)
    if fault == "double-reserve":
        return _double_reserve(system)
    raise ValueError(f"unknown fault {fault!r}; choose from {FAULTS}")


def _drop_ack(system, nth: int) -> dict:
    """Silently drop the nth INV_ACK at the fabric boundary.

    Models a lost acknowledgement: the home's transaction never
    completes, the requester blocks forever, and the run deadlocks --
    which the sanitizer reports as a structured ``deadlock`` violation
    with the stuck transaction's state attached.
    """
    state = {"fault": "drop-ack", "seen": 0, "fired": False}

    def on_send(msg: CoherenceMsg, time: int) -> bool:
        if msg.mtype is MsgType.INV_ACK and not state["fired"]:
            state["seen"] += 1
            if state["seen"] == nth:
                state["fired"] = True
                return True  # dropped on the wire
        return False

    system.add_probe(SimpleNamespace(kind="fault", on_send=on_send))
    return state


def _stale_sharer(system, nth: int) -> dict:
    """Append a bogus sharer pointer on the nth directory sharer add.

    Models directory-state corruption (a bit flip in a sharer vector).
    ACKwise keeps exact sharer lists, so the extra pointer disagrees
    with the actual cache states and the sanitizer's quiescent
    directory-consistency check flags it.  (Under Dir_kB a stale
    pointer is architecturally legal -- silent evictions create them --
    so this fault is only meaningful on ACKwise configs.)
    """
    state = {"fault": "stale-sharer", "seen": 0, "fired": False}
    compute = system.compute_cores

    for directory in system.directories.values():
        def _add_sharer(entry, core, add=directory._add_sharer):
            add(entry, core)
            if state["fired"] or entry.global_bit:
                return
            state["seen"] += 1
            if state["seen"] < nth:
                return
            for bogus in compute:
                if bogus != core and bogus not in entry.sharers:
                    entry.sharers.append(bogus)
                    state["fired"] = True
                    return

        directory._add_sharer = _add_sharer
    return state


class _DoubleReservedPort(PortResource):
    """A port that grants overlapping reservations: it hands out start
    times but never advances ``free_at``, so its ``busy_cycles`` end up
    exceeding the span it was ever reserved for."""

    __slots__ = ("state",)

    def __init__(self, state: dict) -> None:
        super().__init__()
        self.state = state

    def reserve(self, earliest: int, duration: int) -> int:
        start = max(earliest, self.free_at)
        self.busy_cycles += duration  # accounted, but the slot is not held
        if duration > 0:
            self.state["fired"] = True
        return start


def _double_reserve(system) -> dict:
    """Break one network port's reservation discipline.

    On hybrid (ATAC) networks the first receive-net port is replaced
    with a double-booking implementation; on the pure-mesh networks the
    equivalent accounting corruption is applied to port 0's counters
    directly (the mesh keeps flat arrays, not port objects).  Either
    way the end-of-run port audit sees ``busy_cycles`` > reserved span.
    """
    state = {"fault": "double-reserve", "fired": False}
    network = system.network
    receive_nets = getattr(network, "receive_nets", None)
    if receive_nets:
        receive_nets[0]._ports[0] = _DoubleReservedPort(state)
    else:
        # The meshes keep flat counter arrays, not port objects, so the
        # equivalent corruption is applied at the send boundary: the
        # first packet credits port 0 with a span it never reserved.
        def on_net_send(pkt, deliveries) -> None:
            if not state["fired"]:
                state["fired"] = True
                network._busy[0] += 1_000_000

        system.add_probe(SimpleNamespace(kind="fault", on_net_send=on_net_send))
    return state
