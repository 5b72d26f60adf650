"""Object replacements that only the sanitizer uses.

The sanitizer observes the fabric through the probe hooks that
``ManycoreSystem`` calls on every probe (``on_send``, ``on_net_send``,
``on_run_end``, ``on_run_error``; DESIGN.md section 10).  Events and
cache state changes have no probe hook -- no other probe needs one --
so for those ``ManycoreSystem.__init__`` swaps in the objects below,
in the same place it selects the instrumented fabric.  An unsanitized
system never constructs them, so the sanitizer's cost is strictly zero
when disabled.

* :class:`SanitizedEventQueue` -- drop-in :class:`EventQueue` that
  keeps a ring buffer of dispatched events, enforces monotonic
  simulation time, and calls back into the sanitizer around every
  schedule/dispatch so messages can be tracked in flight.
* :class:`L2CacheProxy` / :class:`L1CacheProxy` -- transparent wrappers
  around :class:`~repro.coherence.cache.SetAssocCache` that report
  every state change, letting the sanitizer maintain a cross-cache
  holder index (the basis of the SWMR and directory-consistency
  checks) in O(1) per change instead of O(cores) per check.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.coherence.cache import CacheState
from repro.sim.eventq import _NO_ARG, EventQueue


class SanitizedEventQueue(EventQueue):
    """Event queue with dispatch tracing and in-flight accounting.

    Behaviourally identical to :class:`EventQueue` -- same
    ``(time, seq)`` tie-breaking, same ``max_events`` semantics -- so a
    sanitized run produces byte-identical results to an unsanitized
    one (``tests/sanitizer`` locks this in).
    """

    __slots__ = ("_san",)

    def __init__(self, sanitizer) -> None:
        super().__init__()
        self._san = sanitizer

    def schedule(
        self, time: int, callback: Callable, arg: Any = _NO_ARG
    ) -> None:
        super().schedule(time, callback, arg)
        if arg is not _NO_ARG:
            self._san.on_schedule(time, callback, arg)

    def run(self, max_events: int | None = None) -> int:
        import heapq

        san = self._san
        heap = self._heap
        no_arg = _NO_ARG
        heappop = heapq.heappop
        processed = 0
        try:
            while heap:
                time, _, callback, arg = heappop(heap)
                if time < self.now:
                    san.violation(
                        "time-travel",
                        f"event at t={time} dispatched after t={self.now}",
                        details={"event_time": time, "now": self.now},
                    )
                self.now = time
                san.record_event(time, callback, arg)
                if arg is no_arg:
                    callback(time)
                else:
                    callback(arg, time)
                san.on_dispatch(time, callback, arg)
                processed += 1
                if max_events is not None and processed > max_events:
                    raise RuntimeError(
                        f"event budget exceeded ({max_events}); "
                        "possible protocol livelock"
                    )
        finally:
            self.events_processed += processed
        return self.now


class _CacheProxy:
    """Delegating wrapper base; unknown attributes fall through."""

    __slots__ = ("inner", "san", "core")

    def __init__(self, inner, sanitizer, core: int) -> None:
        self.inner = inner
        self.san = sanitizer
        self.core = core

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def lookup(self, line: int, touch: bool = True) -> CacheState:
        return self.inner.lookup(line, touch)


class L2CacheProxy(_CacheProxy):
    """Reports every L2 MSI state change to the sanitizer."""

    __slots__ = ()

    def install(self, line: int, state: CacheState):
        victim = self.inner.install(line, state)
        san, core = self.san, self.core
        san.l2_changed(core, line, state)
        if victim is not None:
            san.l2_removed(core, victim[0])
        return victim

    def set_state(self, line: int, state: CacheState) -> None:
        self.inner.set_state(line, state)
        if state is CacheState.INVALID:
            self.san.l2_removed(self.core, line)
        else:
            self.san.l2_changed(self.core, line, state)

    def invalidate(self, line: int) -> CacheState:
        prev = self.inner.invalidate(line)
        if prev is not CacheState.INVALID:
            self.san.l2_removed(self.core, line)
        return prev


class L1CacheProxy(_CacheProxy):
    """Checks L1-in-L2 containment on every L1 fill.

    The L1s are write-through and private, so every resident L1 line
    must also be resident in the same core's L2, and an L1 line can
    only be MODIFIED if the L2 copy is.
    """

    __slots__ = ("l2",)

    def __init__(self, inner, sanitizer, core: int, l2) -> None:
        super().__init__(inner, sanitizer, core)
        self.l2 = l2  # the *unwrapped* L2 cache of the same core

    def install(self, line: int, state: CacheState):
        l2_state = self.l2.lookup(line, touch=False)
        if l2_state is CacheState.INVALID:
            self.san.violation(
                "l1-containment",
                f"core {self.core} filled L1 line {line} absent from its L2",
                details={"core": self.core, "address": line},
            )
        if state is CacheState.MODIFIED and l2_state is not CacheState.MODIFIED:
            self.san.violation(
                "l1-containment",
                f"core {self.core} holds L1 line {line} MODIFIED over a "
                f"{l2_state.name} L2 copy",
                details={"core": self.core, "address": line,
                         "l2_state": l2_state.name},
            )
        return self.inner.install(line, state)
