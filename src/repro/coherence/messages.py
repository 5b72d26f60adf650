"""Coherence protocol message vocabulary.

Message sizes follow Section IV-C1: coherence (control) messages are 88
bits, data-carrying messages 600 bits; the 16-bit sequence number rides
in packet slack and adds no flits.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto

from repro.network.types import CONTROL_MSG_BITS, DATA_MSG_BITS


class MsgType(Enum):
    # Identity hash: Enum.__hash__ is a Python-level function (it hashes
    # the member name) and message types key frozenset/dict lookups on
    # every delivery.  Members are singletons, so identity hashing is
    # consistent with the (identity) equality semantics.
    __hash__ = object.__hash__

    # requests from an L2 controller to a home directory
    SH_REQ = auto()        # read miss: want a shared copy
    EX_REQ = auto()        # write miss/upgrade: want an exclusive copy
    EVICT_NOTIFY = auto()  # clean (S) eviction notice (ACKwise only)
    DIRTY_WB = auto()      # modified eviction: data back to home

    # requests from a home directory to remote L2 controllers
    INV_REQ = auto()       # unicast invalidate
    INV_BCAST = auto()     # broadcast invalidate (the protocol's only bcast)
    FLUSH_REQ = auto()     # owner must give up M copy + data
    WB_REQ = auto()        # owner must write back data, demote M -> S
    FWD_REQ = auto()       # sharer asked to forward data to the requester

    # responses
    INV_ACK = auto()
    FLUSH_REP = auto()     # data (owner -> home)
    WB_REP = auto()        # data (owner -> home)
    FWD_DATA = auto()      # data (sharer -> requester)
    SH_REP = auto()        # data (home -> requester), grants S
    EX_REP = auto()        # data (home -> requester), grants M
    WB_ACK = auto()        # home acknowledges a DIRTY_WB

    # memory-controller traffic
    MEM_READ = auto()
    MEM_WRITE = auto()
    MEM_DATA = auto()
    MEM_WRITE_ACK = auto()


#: message types that carry a cache line (600-bit packets)
DATA_BEARING = frozenset(
    {
        MsgType.DIRTY_WB,
        MsgType.FLUSH_REP,
        MsgType.WB_REP,
        MsgType.FWD_DATA,
        MsgType.SH_REP,
        MsgType.EX_REP,
        MsgType.MEM_WRITE,
        MsgType.MEM_DATA,
    }
)

#: Packet size of every message type in bits (Section IV-C1), resolved
#: once so the injection path reads a table instead of testing
#: ``DATA_BEARING`` membership per message.
MSG_BITS: dict[MsgType, int] = {
    mt: DATA_MSG_BITS if mt in DATA_BEARING else CONTROL_MSG_BITS
    for mt in MsgType
}


@dataclass(slots=True, init=False)
class CoherenceMsg:
    """One protocol message.

    Attributes
    ----------
    mtype:
        The message type.
    address:
        Cache-line id.
    sender / dest:
        Core ids (``dest`` ignored for broadcasts).
    seq:
        Directory-slice sequence number (Section IV-C1); carried by
        broadcasts and by directory->core unicasts so receivers can
        detect reordering.  ``None`` when sequencing is disabled.
    requester:
        For forwarded/invalidation flows: the core the transaction is
        ultimately serving.
    """

    mtype: MsgType
    address: int
    sender: int
    dest: int
    seq: int | None = None
    requester: int | None = None
    #: WB_REP only: False when the demoted owner had already evicted the
    #: line (served from its writeback buffer) and keeps no shared copy.
    retained: bool = True
    #: Telemetry-only transaction correlation id, stamped by
    #: :class:`repro.telemetry.collector.TelemetryCollector` on the
    #: request/reply pair of a miss transaction.  Never read by the
    #: protocol; always ``None`` when telemetry is off.
    txn: int | None = None

    # Hand-written rather than generated: one message is built per
    # protocol send, and the generated ``__init__`` plus a
    # ``__post_init__`` for the address check cost two calls.
    def __init__(
        self,
        mtype: MsgType,
        address: int,
        sender: int,
        dest: int,
        seq: int | None = None,
        requester: int | None = None,
        retained: bool = True,
        txn: int | None = None,
    ) -> None:
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        self.mtype = mtype
        self.address = address
        self.sender = sender
        self.dest = dest
        self.seq = seq
        self.requester = requester
        self.retained = retained
        self.txn = txn

    @property
    def size_bits(self) -> int:
        return MSG_BITS[self.mtype]

    @property
    def is_broadcast(self) -> bool:
        return self.mtype is MsgType.INV_BCAST
