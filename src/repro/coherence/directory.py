"""Home directories: the ACKwise_k and Dir_kB protocols.

Each core is home for a statically-assigned set of cache lines (Section
III-B).  A :class:`DirectoryController` serializes transactions per
line: while one request is in flight the line is *busy* and later
requests queue behind it, which is how sequential consistency is
maintained at the directory.

Protocol summary (paper Sections III-B and V-F):

* **ACKwise_k** -- up to ``k`` sharer pointers; past ``k`` the *global*
  bit is set and only the sharer **count** is tracked.  Exclusive
  requests to an overflowed line broadcast the invalidation, but only
  the true sharers acknowledge (the count says how many to expect).
  Clean evictions must therefore be announced (``EVICT_NOTIFY``) to
  keep the count exact -- ACKwise "cannot support silent evictions".
* **Dir_kB** -- ``k`` pointers; past ``k`` a broadcast bit is set.
  Exclusive requests then broadcast and wait for acknowledgements from
  *every* core in the system (the 1024-ack storm that hurts
  broadcast-heavy applications in Figure 14).  Silent evictions are
  allowed.

Race handling (documented in DESIGN.md):

* evictions of modified lines park the data in the evicting core's
  writeback buffer until the home sends ``WB_ACK``; flush/writeback
  requests that race with the eviction are served from that buffer;
* an ``EVICT_NOTIFY`` that races with an in-flight broadcast
  invalidation counts as that core's acknowledgement (the core itself
  no longer holds the line and will stay silent);
* an ``EVICT_NOTIFY`` racing with in-flight *unicast* invalidations is
  ignored for the targeted cores (they always acknowledge unicast
  invalidates, present or not).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from repro.coherence.messages import CoherenceMsg, MsgType
from repro.coherence.sequencing import DirectorySequencer


class Protocol(Enum):
    ACKWISE = "ackwise"
    DIRKB = "dirkb"


class DirState(Enum):
    UNCACHED = "U"
    SHARED = "S"
    MODIFIED = "M"


@dataclass(slots=True)
class DirectoryEntry:
    """One directory line's stable state."""

    state: DirState = DirState.UNCACHED
    sharers: list[int] = field(default_factory=list)  # up to k pointers
    global_bit: bool = False   # ACKwise: count-only mode / DirkB: bcast bit
    count: int = 0             # ACKwise global mode: number of sharers
    owner: int | None = None

    def reset(self) -> None:
        self.state = DirState.UNCACHED
        self.sharers.clear()
        self.global_bit = False
        self.count = 0
        self.owner = None


@dataclass(slots=True)
class _Transaction:
    """In-flight request state for a busy line."""

    mtype: MsgType               # SH_REQ or EX_REQ
    requester: int
    pending_acks: int = 0
    waiting_mem: bool = False
    waiting_owner: bool = False  # FLUSH_REP / WB_REP outstanding
    inv_targets: frozenset[int] = frozenset()
    broadcast: bool = False

    @property
    def complete(self) -> bool:
        return (
            self.pending_acks == 0
            and not self.waiting_mem
            and not self.waiting_owner
        )


@dataclass(slots=True)
class DirectoryStats:
    """Per-directory event counters for the energy model."""

    lookups: int = 0
    updates: int = 0
    invalidations_unicast: int = 0
    invalidations_broadcast: int = 0
    acks_received: int = 0
    mem_reads: int = 0
    mem_writes: int = 0


class DirectoryController:
    """The directory slice homed at one core."""

    def __init__(
        self,
        core: int,
        fabric,
        protocol: Protocol = Protocol.ACKWISE,
        hardware_sharers: int = 4,
        sequencer: DirectorySequencer | None = None,
        slice_id: int = 0,
        dir_latency: int = 3,
    ) -> None:
        if hardware_sharers < 2:
            raise ValueError(
                f"hardware_sharers must be >= 2 (read-after-write needs two "
                f"pointers), got {hardware_sharers}"
            )
        if dir_latency < 0:
            raise ValueError(f"dir_latency must be non-negative, got {dir_latency}")
        self.core = core
        self.fabric = fabric
        self.protocol = protocol
        self.k = hardware_sharers
        self.sequencer = sequencer
        self.slice_id = slice_id
        self.dir_latency = dir_latency
        self.entries: dict[int, DirectoryEntry] = {}
        self.busy: dict[int, _Transaction] = {}
        self.queues: dict[int, deque[CoherenceMsg]] = {}
        self.stats = DirectoryStats()

    # ------------------------------------------------------------------
    def _entry(self, address: int) -> DirectoryEntry:
        e = self.entries.get(address)
        if e is None:
            e = self.entries[address] = DirectoryEntry()
        return e

    def _send(self, mtype: MsgType, address: int, dest: int, now: int,
              requester: int | None = None) -> None:
        # Directory unicasts carry the slice's most recent broadcast seq.
        sequencer = self.sequencer
        seq = None if sequencer is None else sequencer.current_seq(self.slice_id)
        self.fabric.send_msg(
            CoherenceMsg(mtype, address, self.core, dest, seq, requester),
            now,
        )

    # ------------------------------------------------------------------
    def handle(self, msg: CoherenceMsg, now: int) -> None:
        """Entry point for every message addressed to this directory."""
        mt = msg.mtype
        if mt in _REQUESTS:
            if msg.address in self.busy:
                self.queues.setdefault(msg.address, deque()).append(msg)
                return
            self._start(msg, now + self.dir_latency)
            return
        try:
            handler = _RESPONSE_HANDLERS[mt]
        except KeyError:
            raise ValueError(
                f"directory at core {self.core} got {mt}"
            ) from None
        handler(self, msg, now)

    # ------------------------------------------------------------------
    def _start(self, msg: CoherenceMsg, now: int) -> None:
        """Begin a serialized transaction for a line."""
        self.stats.lookups += 1
        if msg.mtype is MsgType.DIRTY_WB:
            self._dirty_wb(msg, now)
            return
        entry = self._entry(msg.address)
        txn = _Transaction(mtype=msg.mtype, requester=msg.sender)
        self.busy[msg.address] = txn
        if msg.mtype is MsgType.SH_REQ:
            self._start_shared(entry, txn, msg.address, now)
        else:
            self._start_exclusive(entry, txn, msg.address, now)
        if txn.complete:  # degenerate: nothing to wait for
            self._finish(msg.address, now)

    # -- shared (read) requests ----------------------------------------
    def _start_shared(
        self, entry: DirectoryEntry, txn: _Transaction, address: int, now: int
    ) -> None:
        if entry.state is DirState.MODIFIED:
            # Owner must write back and demote; data comes via home.
            txn.waiting_owner = True
            self._send(MsgType.WB_REQ, address, entry.owner, now,
                       requester=txn.requester)
        else:
            # Clean data comes from memory (UNCACHED or SHARED).
            txn.waiting_mem = True
            self.stats.mem_reads += 1
            self._send(MsgType.MEM_READ, address,
                       self.fabric.memctrl_for(self.core), now,
                       requester=txn.requester)

    # -- exclusive (write) requests --------------------------------------
    def _start_exclusive(
        self, entry: DirectoryEntry, txn: _Transaction, address: int, now: int
    ) -> None:
        if entry.state is DirState.MODIFIED:
            txn.waiting_owner = True
            self._send(MsgType.FLUSH_REQ, address, entry.owner, now,
                       requester=txn.requester)
            return
        if entry.state is DirState.UNCACHED:
            txn.waiting_mem = True
            self.stats.mem_reads += 1
            self._send(MsgType.MEM_READ, address,
                       self.fabric.memctrl_for(self.core), now,
                       requester=txn.requester)
            return
        # SHARED: invalidate the other sharers.
        overflowed = entry.global_bit
        if overflowed:
            txn.broadcast = True
            seq = None
            if self.sequencer is not None:
                seq = self.sequencer.next_broadcast_seq(self.slice_id)
            self.stats.invalidations_broadcast += 1
            self.fabric.send_msg(
                CoherenceMsg(
                    mtype=MsgType.INV_BCAST, address=address,
                    sender=self.core, dest=-1, seq=seq,
                    requester=txn.requester,
                ),
                now,
            )
            if self.protocol is Protocol.ACKWISE:
                # Only true sharers respond; the count says how many.
                txn.pending_acks = entry.count
            else:
                # Dir_kB: every core in the system acknowledges.
                txn.pending_acks = self.fabric.n_broadcast_ackers(self.core)
        else:
            targets = [s for s in entry.sharers if s != txn.requester]
            txn.inv_targets = frozenset(targets)
            txn.pending_acks = len(targets)
            for t in targets:
                self.stats.invalidations_unicast += 1
                self._send(MsgType.INV_REQ, address, t, now,
                           requester=txn.requester)
        # Data: upgrades (requester already a sharer) have the line;
        # otherwise fetch from memory in parallel with the invalidations.
        requester_has_data = (
            not overflowed and txn.requester in entry.sharers
        )
        if not requester_has_data:
            txn.waiting_mem = True
            self.stats.mem_reads += 1
            self._send(MsgType.MEM_READ, address,
                       self.fabric.memctrl_for(self.core), now,
                       requester=txn.requester)

    # -- modified-line eviction -------------------------------------------
    def _dirty_wb(self, msg: CoherenceMsg, now: int) -> None:
        entry = self._entry(msg.address)
        if entry.state is DirState.MODIFIED and entry.owner == msg.sender:
            entry.reset()
            self.stats.updates += 1
            self.stats.mem_writes += 1
            self._send(MsgType.MEM_WRITE, msg.address,
                       self.fabric.memctrl_for(self.core), now)
        # else: stale (a flush beat the writeback); just free the buffer.
        self._send(MsgType.WB_ACK, msg.address, msg.sender, now)
        self._drain_queue(msg.address, now)

    # -- clean-line eviction notices ----------------------------------------
    def _evict_notify(self, msg: CoherenceMsg, now: int) -> None:
        if self.protocol is Protocol.DIRKB:
            raise ValueError("Dir_kB uses silent evictions; EVICT_NOTIFY invalid")
        entry = self._entry(msg.address)
        txn = self.busy.get(msg.address)
        if txn is not None and txn.pending_acks > 0:
            if txn.broadcast:
                # The evicted core will not answer the broadcast: this
                # notice *is* its acknowledgement.
                self._remove_sharer(entry, msg.sender)
                txn.pending_acks -= 1
                self.stats.acks_received += 1
                if txn.complete:
                    self._finish(msg.address, now)
                return
            if msg.sender in txn.inv_targets:
                # The core will still acknowledge the unicast INV; drop
                # the notice to avoid double-counting.
                return
        self._remove_sharer(entry, msg.sender)
        self.stats.updates += 1

    def _remove_sharer(self, entry: DirectoryEntry, core: int) -> None:
        if core in entry.sharers:
            entry.sharers.remove(core)
        if entry.global_bit and entry.count > 0:
            entry.count -= 1
        if entry.state is DirState.SHARED:
            remaining = entry.count if entry.global_bit else len(entry.sharers)
            if remaining == 0:
                entry.reset()

    # -- responses ---------------------------------------------------------
    def _ack(self, msg: CoherenceMsg, now: int) -> None:
        txn = self.busy.get(msg.address)
        if txn is None or txn.pending_acks == 0:
            return  # late ack for an already-satisfied broadcast (Dir_kB drift)
        txn.pending_acks -= 1
        self.stats.acks_received += 1
        if txn.complete:
            self._finish(msg.address, now)

    def _owner_reply(self, msg: CoherenceMsg, now: int) -> None:
        txn = self.busy.get(msg.address)
        if txn is None or not txn.waiting_owner:
            raise RuntimeError(
                f"unexpected owner reply {msg.mtype} for line {msg.address}"
            )
        txn.waiting_owner = False
        if msg.mtype is MsgType.WB_REP:
            # The line is now clean: update memory.
            self.stats.mem_writes += 1
            self._send(MsgType.MEM_WRITE, msg.address,
                       self.fabric.memctrl_for(self.core), now)
            entry = self._entry(msg.address)
            if not msg.retained:
                # Owner evicted concurrently; it is no longer a sharer.
                entry.owner = None
        if txn.complete:
            self._finish(msg.address, now)

    def _mem_data(self, msg: CoherenceMsg, now: int) -> None:
        txn = self.busy.get(msg.address)
        if txn is None or not txn.waiting_mem:
            raise RuntimeError(f"unexpected MEM_DATA for line {msg.address}")
        txn.waiting_mem = False
        if txn.complete:
            self._finish(msg.address, now)

    def _mem_write_ack(self, msg: CoherenceMsg, now: int) -> None:
        pass  # fire-and-forget memory updates

    # -- transaction completion ---------------------------------------------
    def _finish(self, address: int, now: int) -> None:
        txn = self.busy.pop(address)
        entry = self._entry(address)
        self.stats.updates += 1
        if txn.mtype is MsgType.SH_REQ:
            old_owner = entry.owner if entry.state is DirState.MODIFIED else None
            if entry.state is DirState.MODIFIED:
                # WB_REQ path: owner demoted to S (if it kept the line).
                entry.state = DirState.SHARED
                entry.sharers = [old_owner] if old_owner is not None else []
                entry.owner = None
            if entry.state is DirState.UNCACHED:
                entry.state = DirState.SHARED
            self._add_sharer(entry, txn.requester)
            self._send(MsgType.SH_REP, address, txn.requester, now)
        else:
            entry.reset()
            entry.state = DirState.MODIFIED
            entry.owner = txn.requester
            self._send(MsgType.EX_REP, address, txn.requester, now)
        self._drain_queue(address, now)

    def _add_sharer(self, entry: DirectoryEntry, core: int) -> None:
        if entry.global_bit:
            entry.count += 1
            return
        if core in entry.sharers:
            return
        if len(entry.sharers) < self.k:
            entry.sharers.append(core)
            return
        # Pointer overflow.
        entry.global_bit = True
        if self.protocol is Protocol.ACKWISE:
            # Switch to count-only tracking: known sharers + the new one.
            entry.count = len(entry.sharers) + 1
        # Dir_kB keeps its k stale pointers and just marks the bcast bit.

    def _drain_queue(self, address: int, now: int) -> None:
        q = self.queues.get(address)
        if not q or address in self.busy:
            return
        nxt = q.popleft()
        if not q:
            del self.queues[address]
        self._start(nxt, now + self.dir_latency)


#: Requests serialized per line (queued while the line is busy).
_REQUESTS = frozenset((MsgType.SH_REQ, MsgType.EX_REQ, MsgType.DIRTY_WB))

#: Per-type dispatch for every other message :meth:`DirectoryController.handle`
#: accepts.
_RESPONSE_HANDLERS = {
    MsgType.EVICT_NOTIFY: DirectoryController._evict_notify,
    MsgType.INV_ACK: DirectoryController._ack,
    MsgType.FLUSH_REP: DirectoryController._owner_reply,
    MsgType.WB_REP: DirectoryController._owner_reply,
    MsgType.MEM_DATA: DirectoryController._mem_data,
    MsgType.MEM_WRITE_ACK: DirectoryController._mem_write_ack,
}
