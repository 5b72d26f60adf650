"""Per-core cache controller: private L1-D/L1-I + L2, protocol client side.

The controller owns the core's private hierarchy (Table I: 32 KB L1-I,
32 KB L1-D, 256 KB L2, all private) and speaks the coherence protocol
toward home directories:

* an access that hits in L1 completes in 1 cycle; an L1 miss that hits
  L2 in ``l2_hit_latency``; an L2 miss allocates the (single) MSHR and
  issues SH_REQ / EX_REQ -- the in-order core blocks until the reply;
* incoming invalidations, flushes and writeback requests are served at
  any time (the core being blocked does not stop its cache controller);
* modified evictions park data in a writeback buffer until the home
  acknowledges, so flush/writeback requests racing with the eviction
  can still be served (DESIGN.md race table);
* ATAC+ sequence-number ordering (Section IV-C1) is enforced here:
  early directory *requests* are buffered until the broadcasts they
  trail have been processed, and broadcasts that race with an
  outstanding SH_REQ are buffered and reconciled against the reply's
  sequence number.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable

from repro.coherence.cache import CacheState, SetAssocCache
from repro.coherence.messages import CoherenceMsg, MsgType
from repro.coherence.sequencing import SEQ_HALF, SEQ_MOD, SequenceTracker


@dataclass(slots=True)
class CacheCounters:
    """Per-core cache event counters for the energy model.

    ``slots=True``: the L1-I counter alone is bumped once per retired
    instruction.
    """

    l1i_accesses: int = 0
    l1d_reads: int = 0
    l1d_writes: int = 0
    l2_reads: int = 0
    l2_writes: int = 0
    l2_tag_probes: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    invalidations_received: int = 0
    evictions_clean: int = 0
    evictions_dirty: int = 0
    bcast_invs_buffered: int = 0
    bcast_invs_stale_dropped: int = 0
    unicasts_buffered_early: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict snapshot (for results serialization)."""
        return {f.name: getattr(self, f.name) for f in fields(CacheCounters)}

    @classmethod
    def from_dict(cls, d: dict) -> "CacheCounters":
        """Inverse of :meth:`as_dict`; unknown keys are ignored."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})


@dataclass
class _Mshr:
    """The single outstanding miss of an in-order core."""

    address: int
    is_write: bool
    issued_at: int
    callback: Callable[[int], None]
    reply_seq: int | None = None


class L2Controller:
    """Cache hierarchy + protocol engine for one core."""

    def __init__(
        self,
        core: int,
        fabric,
        l1_sets: int = 128,
        l1_ways: int = 4,
        l2_sets: int = 512,
        l2_ways: int = 8,
        l1_hit_latency: int = 1,
        l2_hit_latency: int = 8,
        fill_latency: int = 2,
        n_slices: int = 64,
        silent_clean_evictions: bool = False,
        sequencing: bool = True,
    ) -> None:
        self.core = core
        self.fabric = fabric
        # Protocol-constant, read on every broadcast delivery: resolved
        # once instead of through the fabric property per message.
        self._all_ack: bool = bool(fabric.all_cores_ack_broadcasts)
        self.l1d = SetAssocCache(l1_sets, l1_ways)
        self.l2 = SetAssocCache(l2_sets, l2_ways)
        self.l1_hit_latency = l1_hit_latency
        self.l2_hit_latency = l2_hit_latency
        self.fill_latency = fill_latency
        #: Dir_kB may evict clean lines silently; ACKwise must announce.
        self.silent_clean_evictions = silent_clean_evictions
        self.sequencing = sequencing
        self.tracker = SequenceTracker(n_slices)
        self.mshr: _Mshr | None = None
        self.wb_buffer: set[int] = set()
        #: address -> buffered INV_BCAST messages racing an SH_REQ
        self._pending_bcasts: dict[int, list[CoherenceMsg]] = {}
        #: directory requests that overtook an unprocessed broadcast
        self._early_unicasts: list[CoherenceMsg] = []
        self.counters = CacheCounters()

    # ------------------------------------------------------------------
    # Core-facing access path
    # ------------------------------------------------------------------
    def access(
        self, address: int, is_write: bool, now: int,
        callback: Callable[[int], None],
    ) -> int | None:
        """One memory reference.

        Returns the completion time for hits; returns ``None`` for
        misses (the controller calls ``callback(done_time)`` when the
        line arrives).
        """
        if self.mshr is not None:
            raise RuntimeError(
                f"core {self.core}: in-order core issued a second outstanding miss"
            )
        c = self.counters
        l2_state = self.l2.lookup(address)
        l1_state = self.l1d.lookup(address)
        if is_write:
            c.l1d_writes += 1
        else:
            c.l1d_reads += 1

        if not is_write and l2_state in (CacheState.SHARED, CacheState.MODIFIED):
            if l1_state is not CacheState.INVALID:
                c.l1_hits += 1
                return now + self.l1_hit_latency
            c.l2_reads += 1
            c.l2_hits += 1
            self._l1_fill(address, l2_state)
            return now + self.l2_hit_latency

        if is_write and l2_state is CacheState.MODIFIED:
            c.l2_writes += 1
            if l1_state is not CacheState.INVALID:
                c.l1_hits += 1
                return now + self.l1_hit_latency
            c.l2_hits += 1
            self._l1_fill(address, l2_state)
            return now + self.l2_hit_latency

        # L2 miss (or S->M upgrade).
        c.l2_tag_probes += 1
        c.l2_misses += 1
        self.mshr = _Mshr(address, is_write, now, callback)
        req = MsgType.EX_REQ if is_write else MsgType.SH_REQ
        self.fabric.send_msg(
            CoherenceMsg(
                mtype=req, address=address, sender=self.core,
                dest=self.fabric.home_of(address),
            ),
            now + self.l2_hit_latency,  # miss detected after lookup
        )
        return None

    def fetch_instruction(self) -> None:
        """Account one L1-I access (instruction fetches always hit; the
        SPLASH kernels fit in the 32 KB L1-I, see DESIGN.md)."""
        self.counters.l1i_accesses += 1

    def _l1_fill(self, address: int, state: CacheState) -> None:
        victim = self.l1d.install(address, state)
        # L1 is write-through into L2, so L1 victims drop silently.
        del victim

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle(self, msg: CoherenceMsg, now: int) -> None:
        mt = msg.mtype
        # slice_of_home is only needed for sequencing decisions, so it is
        # computed inside the branches that use it -- replies and acks
        # (the bulk of traffic) skip it entirely.
        if mt is MsgType.INV_BCAST:
            # Reference per-core delivery and the home's local loopback.
            self.handle_broadcast(
                msg, self.fabric.slice_of_home(msg.sender), now
            )
            return
        if mt in _DIR_REQUESTS and self.sequencing and (
            self.tracker.unicast_is_early(
                self.fabric.slice_of_home(msg.sender), msg.seq
            )
        ):
            # The directory sent a broadcast we have not seen yet: hold
            # this request to preserve per-address FIFO order.
            self.counters.unicasts_buffered_early += 1
            self._early_unicasts.append(msg)
            return
        try:
            handler = _HANDLERS[mt]
        except KeyError:
            raise ValueError(
                f"L2 controller at core {self.core} got {mt}"
            ) from None
        handler(self, msg, now)

    # -- broadcast invalidations ------------------------------------------
    def handle_broadcast(
        self, msg: CoherenceMsg, slice_id: int, now: int, acked: bool = False
    ) -> None:
        """One INV_BCAST from directory slice ``slice_id``, in one frame.

        The batched fan-out calls this once per member cache, with the
        slice resolved once per arrival group.  The invalidation, the
        acknowledgement and the sequence-tracker update all happen here;
        buffered early unicasts are revisited only when there are some.
        ``acked`` means this core already acknowledged the broadcast when
        it buffered it (Dir_kB, see below).
        """
        mshr = self.mshr
        if (
            mshr is not None
            and self.sequencing
            and mshr.address == msg.address
            and not mshr.is_write
        ):
            # Potentially overtook the SH_REP we are waiting for
            # (paper's exact buffered case).  Reconciled on reply.
            self.counters.bcast_invs_buffered += 1
            self._pending_bcasts.setdefault(msg.address, []).append(msg)
            if self._all_ack:
                # Dir_kB counts an ack from every core; ours cannot wait
                # for the reply (the directory's broadcast transaction
                # may be what our queued SH_REQ is blocked behind).  We
                # hold no copy, so acknowledging now is safe.
                self.fabric.send_msg(
                    CoherenceMsg(
                        mtype=MsgType.INV_ACK, address=msg.address,
                        sender=self.core, dest=msg.sender,
                    ),
                    now + 1,
                )
            return
        c = self.counters
        c.invalidations_received += 1
        c.l2_tag_probes += 1
        address = msg.address
        had_line = self.l2.lookup(address, False) is not CacheState.INVALID
        if had_line:
            self.l2.set_state(address, CacheState.INVALID)
            self.l1d.invalidate(address)
        # ACKwise: only true sharers respond.  Dir_kB: everyone does.
        if not acked and (had_line or self._all_ack):
            self.fabric.send_msg(
                CoherenceMsg(MsgType.INV_ACK, address, self.core, msg.sender),
                now + 1,
            )
        seq = msg.seq
        if seq is not None and self.sequencing:
            # SequenceTracker.note_broadcast, inlined (see seq_after).
            seen = self.tracker.seen
            if 0 < (seq - seen[slice_id]) % SEQ_MOD < SEQ_HALF:
                seen[slice_id] = seq
            if self._early_unicasts:
                self._release_early(now)

    def _release_early(self, now: int) -> None:
        """Serve the buffered directory requests no longer early."""
        still_early = []
        for m in self._early_unicasts:
            s = self.fabric.slice_of_home(m.sender)
            if self.tracker.unicast_is_early(s, m.seq):
                still_early.append(m)
            else:
                self._handle_dir_request(m, now)
        self._early_unicasts = still_early

    # -- directory requests -------------------------------------------------
    def _handle_dir_request(self, msg: CoherenceMsg, now: int) -> None:
        c = self.counters
        mt = msg.mtype
        if mt is MsgType.INV_REQ:
            c.invalidations_received += 1
            c.l2_tag_probes += 1
            if self.l2.lookup(msg.address, touch=False) is not CacheState.INVALID:
                self.l2.set_state(msg.address, CacheState.INVALID)
                self.l1d.invalidate(msg.address)
            # Unicast invalidates are always acknowledged, present or not
            # (the home counted us; an eviction notice may still be in
            # flight).
            self.fabric.send_msg(
                CoherenceMsg(
                    mtype=MsgType.INV_ACK, address=msg.address,
                    sender=self.core, dest=msg.sender,
                ),
                now + 1,
            )
            return
        if mt is MsgType.FLUSH_REQ:
            c.l2_tag_probes += 1
            if self.l2.lookup(msg.address, touch=False) is CacheState.MODIFIED:
                c.l2_reads += 1
                self.l2.set_state(msg.address, CacheState.INVALID)
                self.l1d.invalidate(msg.address)
            elif msg.address in self.wb_buffer:
                # Raced with our eviction: serve from the WB buffer.
                self.wb_buffer.discard(msg.address)
            else:
                raise RuntimeError(
                    f"core {self.core}: FLUSH_REQ for line {msg.address} "
                    "that is neither modified nor buffered"
                )
            self.fabric.send_msg(
                CoherenceMsg(
                    mtype=MsgType.FLUSH_REP, address=msg.address,
                    sender=self.core, dest=msg.sender,
                ),
                now + self.l2_hit_latency,
            )
            return
        if mt is MsgType.WB_REQ:
            c.l2_tag_probes += 1
            retained = True
            if self.l2.lookup(msg.address, touch=False) is CacheState.MODIFIED:
                c.l2_reads += 1
                self.l2.set_state(msg.address, CacheState.SHARED)
                l1 = self.l1d.lookup(msg.address, touch=False)
                if l1 is not CacheState.INVALID:
                    self.l1d.set_state(msg.address, CacheState.SHARED)
            elif msg.address in self.wb_buffer:
                self.wb_buffer.discard(msg.address)
                retained = False
            else:
                raise RuntimeError(
                    f"core {self.core}: WB_REQ for line {msg.address} "
                    "that is neither modified nor buffered"
                )
            self.fabric.send_msg(
                CoherenceMsg(
                    mtype=MsgType.WB_REP, address=msg.address,
                    sender=self.core, dest=msg.sender, retained=retained,
                ),
                now + self.l2_hit_latency,
            )
            return
        raise ValueError(f"not a directory request: {mt}")

    # -- replies --------------------------------------------------------------
    def _handle_sh_rep(self, msg: CoherenceMsg, now: int) -> None:
        mshr = self.mshr
        if mshr is None or mshr.address != msg.address or mshr.is_write:
            raise RuntimeError(
                f"core {self.core}: SH_REP without matching SH_REQ "
                f"(line {msg.address})"
            )
        # The reply closes the miss before the reconciliation below, so
        # the reconciled broadcasts are applied, not buffered again.
        self.mshr = None
        self._install(msg.address, CacheState.SHARED, now)
        # Reconcile any broadcast invalidations that overtook this reply
        # (Section IV-C1): stale ones are dropped; genuinely newer ones
        # are processed one cycle after the reply.
        pending = self._pending_bcasts.pop(msg.address, [])
        for b in pending:
            slice_id = self.fabric.slice_of_home(b.sender)
            if msg.seq is not None and b.seq is not None and (
                self.tracker.broadcast_is_stale(slice_id, b.seq, msg.seq)
            ):
                self.counters.bcast_invs_stale_dropped += 1
                self.tracker.note_broadcast(slice_id, b.seq)
                if self._early_unicasts:
                    self._release_early(now)
            else:
                # Dir_kB already acknowledged at buffer time; ACKwise
                # acks now (this core was a counted sharer).
                self.handle_broadcast(
                    b, slice_id, now + 1, acked=self._all_ack
                )
        mshr.callback(now + self.fill_latency)

    def _handle_ex_rep(self, msg: CoherenceMsg, now: int) -> None:
        mshr = self.mshr
        if mshr is None or mshr.address != msg.address or not mshr.is_write:
            raise RuntimeError(
                f"core {self.core}: EX_REP without matching EX_REQ "
                f"(line {msg.address})"
            )
        self.mshr = None
        self._install(msg.address, CacheState.MODIFIED, now)
        mshr.callback(now + self.fill_latency)

    def _wb_ack(self, msg: CoherenceMsg, now: int) -> None:
        self.wb_buffer.discard(msg.address)

    # -- fills and evictions ------------------------------------------------
    def _install(self, address: int, state: CacheState, now: int) -> None:
        self.counters.l2_writes += 1
        victim = self.l2.install(address, state)
        self._l1_fill(address, state)
        if victim is None:
            return
        v_line, v_state = victim
        self.l1d.invalidate(v_line)
        if v_state is CacheState.MODIFIED:
            self.counters.evictions_dirty += 1
            self.counters.l2_reads += 1
            self.wb_buffer.add(v_line)
            self.fabric.send_msg(
                CoherenceMsg(
                    mtype=MsgType.DIRTY_WB, address=v_line,
                    sender=self.core, dest=self.fabric.home_of(v_line),
                ),
                now,
            )
        else:
            self.counters.evictions_clean += 1
            if not self.silent_clean_evictions:
                self.fabric.send_msg(
                    CoherenceMsg(
                        mtype=MsgType.EVICT_NOTIFY, address=v_line,
                        sender=self.core, dest=self.fabric.home_of(v_line),
                    ),
                    now,
                )


#: Directory requests subject to the early-unicast check (Section IV-C1).
_DIR_REQUESTS = frozenset((MsgType.INV_REQ, MsgType.FLUSH_REQ, MsgType.WB_REQ))

#: Per-type dispatch for :meth:`L2Controller.handle` (INV_BCAST is
#: routed before the lookup, since it needs its directory slice).
_HANDLERS = {
    MsgType.INV_REQ: L2Controller._handle_dir_request,
    MsgType.FLUSH_REQ: L2Controller._handle_dir_request,
    MsgType.WB_REQ: L2Controller._handle_dir_request,
    MsgType.SH_REP: L2Controller._handle_sh_rep,
    MsgType.EX_REP: L2Controller._handle_ex_rep,
    MsgType.WB_ACK: L2Controller._wb_ack,
}
