"""Memory controllers (Table I: 64 controllers, 5 GB/s each, 100 ns).

One controller per cluster, occupying a core slot on the mesh (Section
III-B).  A request serializes on the controller's bandwidth (5 bytes
per cycle at 1 GHz -> 13 cycles per 64 B line), then waits the DRAM
latency, then the reply is sent back over the on-chip network.  The
connection to external DRAM is optical in the paper's design, but its
technology is explicitly "independent of the on-chip network
architecture" -- we model it as latency + bandwidth only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.coherence.messages import CoherenceMsg, MsgType
from repro.network.engine import PortResource


@dataclass(frozen=True)
class MemoryTiming:
    """DRAM access parameters (Table I)."""

    latency_cycles: int = 100          # 100 ns at 1 GHz
    bytes_per_cycle: float = 5.0       # 5 GB/s at 1 GHz
    line_bytes: int = 64

    @property
    def serialization_cycles(self) -> int:
        return max(1, math.ceil(self.line_bytes / self.bytes_per_cycle))


class MemoryController:
    """One cluster's memory controller."""

    __slots__ = ("core", "timing", "_channel", "reads", "writes", "fabric",
                 "_serialization", "_access_cycles")

    def __init__(self, core: int, fabric, timing: MemoryTiming | None = None) -> None:
        self.core = core
        self.fabric = fabric
        self.timing = timing if timing is not None else MemoryTiming()
        # The timing is frozen: resolve its derived cycle counts once.
        self._serialization = self.timing.serialization_cycles
        self._access_cycles = self._serialization + self.timing.latency_cycles
        self._channel = PortResource()
        self.reads = 0
        self.writes = 0

    def handle(self, msg: CoherenceMsg, now: int) -> None:
        """Process MEM_READ / MEM_WRITE; replies go back over the network."""
        if msg.mtype is MsgType.MEM_READ:
            self.reads += 1
            reply_type = MsgType.MEM_DATA
        elif msg.mtype is MsgType.MEM_WRITE:
            self.writes += 1
            reply_type = MsgType.MEM_WRITE_ACK
        else:
            raise ValueError(f"memory controller got {msg.mtype}")
        start = self._channel.reserve(now, self._serialization)
        reply = CoherenceMsg(
            mtype=reply_type,
            address=msg.address,
            sender=self.core,
            dest=msg.sender,
            requester=msg.requester,
        )
        self.fabric.send_msg(reply, start + self._access_cycles)

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def busy_cycles(self) -> int:
        return self._channel.busy_cycles
