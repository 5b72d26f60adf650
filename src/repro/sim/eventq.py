"""Deterministic discrete-event engine.

A single binary-heap event queue drives cores, cache controllers,
directories and memory controllers.  Ties are broken by insertion
order, so runs are bit-for-bit reproducible.

Hot-path note: the queue accepts an optional ``arg`` alongside the
callback, so callers can schedule a *bound method plus payload* --
``schedule(t, handler.handle, msg)`` -- instead of allocating a fresh
closure per event (``lambda t: handler.handle(msg, t)``).  Coherence
traffic schedules one event per protocol message, so that closure was
one of the two dominant allocations of the simulator (see DESIGN.md
section 9).  The heap entry is ``(time, seq, callback, arg)``; ``seq``
is unique, so comparisons never reach the callback and the
``(time, seq)`` tie-break is exactly what it always was.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

#: Sentinel distinguishing "no arg" from "arg=None" (None is a valid payload).
_NO_ARG = object()


class EventQueue:
    """Min-heap of ``(time, seq, callback, arg)`` events."""

    __slots__ = ("_heap", "_seq", "now", "events_processed")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Callable, Any]] = []
        self._seq = 0
        self.now = 0
        self.events_processed = 0

    def schedule(
        self, time: int, callback: Callable, arg: Any = _NO_ARG
    ) -> None:
        """Run ``callback(time)`` -- or ``callback(arg, time)`` when an
        ``arg`` is supplied -- at the given simulation time.

        Scheduling in the past is an error -- it would mean a causality
        violation in a model.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at t={time}, current time is {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, callback, arg))

    def __len__(self) -> int:
        return len(self._heap)

    def run(self, max_events: int | None = None) -> int:
        """Drain the queue; returns the final simulation time.

        ``max_events`` is a safety valve for tests; exceeding it raises
        ``RuntimeError`` (likely a protocol livelock).
        """
        processed = 0
        heap = self._heap
        no_arg = _NO_ARG
        pop = heappop
        try:
            if max_events is None:
                # Unbudgeted drain: the common (production) path, with
                # no per-event budget check.
                while heap:
                    time, _, callback, arg = pop(heap)
                    self.now = time
                    if arg is no_arg:
                        callback(time)
                    else:
                        callback(arg, time)
                    processed += 1
            else:
                while heap:
                    time, _, callback, arg = pop(heap)
                    self.now = time
                    if arg is no_arg:
                        callback(time)
                    else:
                        callback(arg, time)
                    processed += 1
                    if processed > max_events:
                        raise RuntimeError(
                            f"event budget exceeded ({max_events}); "
                            "possible protocol livelock"
                        )
        finally:
            # Folded into the counter once per run() rather than per
            # event; nothing observes the counter mid-drain.
            self.events_processed += processed
        return self.now
