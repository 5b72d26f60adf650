"""Sequence-number ordering for mixed broadcast/unicast routes.

Section IV-C1: ATAC+'s distance-based routing lets a directory's
broadcast invalidations (always on the ONet) and its unicast messages
(possibly on the ENet) take different physical routes, so they can
arrive out of order.  The fix:

* each **directory slice** (one per cluster, 64 total) keeps a 16-bit
  counter incremented on every broadcast invalidate it sends;
* broadcasts carry their (new) sequence number; directory unicasts
  carry the number of the *most recent* broadcast;
* a receiver that gets a unicast whose ``seq`` is ahead of the last
  broadcast it processed from that slice knows broadcasts are missing
  and buffers the unicast;
* a broadcast arriving while the receiver has an outstanding SH_REQ for
  the same address is *potentially* early and is buffered until the
  SH_REP arrives, then dropped (if the reply already reflects it) or
  processed one cycle later (paper's exact rule).

Counters wrap at 2^16 like TCP sequence numbers; ordering uses modular
comparison, safe while fewer than 2^15 broadcasts are in flight from
one slice (paper: "theoretically impossible due to the buffering limits
of the interconnection network").
"""

from __future__ import annotations

from dataclasses import dataclass, field

SEQ_BITS = 16
SEQ_MOD = 1 << SEQ_BITS
SEQ_HALF = 1 << (SEQ_BITS - 1)


def seq_after(a: int, b: int) -> bool:
    """True if sequence number ``a`` is logically after ``b`` (mod 2^16)."""
    d = (a - b) % SEQ_MOD
    return 0 < d < SEQ_HALF


class DirectorySequencer:
    """The sending side: one counter per directory slice.

    Storage cost matches the paper: 2 bytes x 64 slices kept at each
    core for the receive side, and one counter per slice here.
    """

    __slots__ = ("_counters",)

    def __init__(self, n_slices: int) -> None:
        if n_slices < 1:
            raise ValueError(f"n_slices must be >= 1, got {n_slices}")
        self._counters = [0] * n_slices

    def next_broadcast_seq(self, slice_id: int) -> int:
        """Increment and return the slice counter (called per broadcast)."""
        c = (self._counters[slice_id] + 1) % SEQ_MOD
        self._counters[slice_id] = c
        return c

    def current_seq(self, slice_id: int) -> int:
        """Sequence number stamped on directory unicasts."""
        return self._counters[slice_id]


class SequenceTracker:
    """The receiving side: last processed broadcast seq per slice.

    ``seen`` is the per-slice list itself: the L2 controller's broadcast
    fan-out applies :meth:`note_broadcast`'s rule to it inline, once per
    receiving core.
    """

    __slots__ = ("seen",)

    def __init__(self, n_slices: int) -> None:
        if n_slices < 1:
            raise ValueError(f"n_slices must be >= 1, got {n_slices}")
        self.seen = [0] * n_slices

    def last_seen(self, slice_id: int) -> int:
        return self.seen[slice_id]

    def note_broadcast(self, slice_id: int, seq: int) -> None:
        """Record that a broadcast with ``seq`` has been processed."""
        if seq_after(seq, self.seen[slice_id]):
            self.seen[slice_id] = seq

    def unicast_is_early(self, slice_id: int, seq: int | None) -> bool:
        """True if a directory unicast overtook an unprocessed broadcast.

        A unicast stamped with ``seq`` asserts "the directory had sent
        broadcasts up to ``seq`` before me"; if we have not processed
        that broadcast yet, the unicast must be buffered.
        """
        if seq is None:
            return False
        return seq_after(seq, self.seen[slice_id])

    def broadcast_is_stale(self, slice_id: int, bcast_seq: int, reply_seq: int) -> bool:
        """Paper's SH_REP-vs-buffered-INV_BCAST comparison.

        The buffered broadcast is *stale* (already reflected in the
        shared reply, so it must be dropped) iff the reply carries a
        sequence number at or beyond the broadcast's.
        """
        return not seq_after(bcast_seq, reply_seq)
