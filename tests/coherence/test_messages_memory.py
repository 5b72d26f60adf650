"""Unit tests for coherence messages and the memory controller."""

import pytest

from repro.coherence.memory import MemoryController, MemoryTiming
from repro.coherence.messages import (
    CONTROL_MSG_BITS,
    DATA_BEARING,
    DATA_MSG_BITS,
    MSG_BITS,
    CoherenceMsg,
    MsgType,
)
from repro.sim.eventq import EventQueue


class TestMessageSizes:
    """Section IV-C1's packet-format arithmetic."""

    def test_control_message_is_88_bits(self):
        """64 addr + 20 ids + 4 type = 88 bits."""
        assert CONTROL_MSG_BITS == 64 + 20 + 4

    def test_data_message_is_600_bits(self):
        """512 data + 64 addr + 20 ids + 4 type = 600 bits."""
        assert DATA_MSG_BITS == 512 + 64 + 20 + 4

    def test_control_fits_two_flits(self):
        from repro.network.types import Packet

        pkt = Packet(src=0, dst=1, size_bits=CONTROL_MSG_BITS)
        assert pkt.n_flits(64) == 2

    def test_data_needs_ten_flits(self):
        from repro.network.types import Packet

        pkt = Packet(src=0, dst=1, size_bits=DATA_MSG_BITS)
        assert pkt.n_flits(64) == 10

    def test_sequence_number_adds_no_flits(self):
        """'adding 16 bits for the sequence number does not create any
        additional flits': 88+16=104 <= 2x64 and 600+16 <= 10x64."""
        assert CONTROL_MSG_BITS + 16 <= 2 * 64
        assert DATA_MSG_BITS + 16 <= 10 * 64

    def test_data_bearing_classification(self):
        msg = CoherenceMsg(MsgType.SH_REP, address=1, sender=0, dest=1)
        assert msg.size_bits == DATA_MSG_BITS
        req = CoherenceMsg(MsgType.SH_REQ, address=1, sender=0, dest=1)
        assert req.size_bits == CONTROL_MSG_BITS
        for mt in DATA_BEARING:
            assert CoherenceMsg(mt, 1, 0, 1).size_bits == DATA_MSG_BITS

    @pytest.mark.parametrize("mt", list(MsgType), ids=lambda mt: mt.name)
    def test_size_table_follows_data_bearing(self, mt):
        """The injection path's per-type size table is the DATA_BEARING
        rule, for every message type."""
        want = DATA_MSG_BITS if mt in DATA_BEARING else CONTROL_MSG_BITS
        assert MSG_BITS[mt] == want
        assert CoherenceMsg(mt, 1, 0, 1).size_bits == want

    def test_only_inv_bcast_is_broadcast(self):
        assert CoherenceMsg(MsgType.INV_BCAST, 1, 0, -1).is_broadcast
        assert not CoherenceMsg(MsgType.INV_REQ, 1, 0, 1).is_broadcast

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            CoherenceMsg(MsgType.SH_REQ, address=-1, sender=0, dest=1)


class _FakeFabric:
    def __init__(self):
        self.sent = []

    def send_msg(self, msg, time):
        self.sent.append((msg, time))


class TestMemoryTiming:
    def test_table_i_values(self):
        t = MemoryTiming()
        assert t.latency_cycles == 100
        assert t.bytes_per_cycle == 5.0  # 5 GB/s at 1 GHz
        assert t.serialization_cycles == 13  # ceil(64/5)


class TestMemoryController:
    def test_read_reply_timing(self):
        fabric = _FakeFabric()
        mc = MemoryController(core=0, fabric=fabric)
        mc.handle(CoherenceMsg(MsgType.MEM_READ, 7, sender=3, dest=0), now=10)
        [(reply, t)] = fabric.sent
        assert reply.mtype is MsgType.MEM_DATA
        assert reply.dest == 3
        assert t == 10 + 13 + 100

    def test_write_gets_ack(self):
        fabric = _FakeFabric()
        mc = MemoryController(core=0, fabric=fabric)
        mc.handle(CoherenceMsg(MsgType.MEM_WRITE, 7, sender=3, dest=0), now=0)
        [(reply, _)] = fabric.sent
        assert reply.mtype is MsgType.MEM_WRITE_ACK

    def test_bandwidth_serializes_requests(self):
        """5 GB/s: back-to-back line requests queue on the channel."""
        fabric = _FakeFabric()
        mc = MemoryController(core=0, fabric=fabric)
        for _ in range(3):
            mc.handle(CoherenceMsg(MsgType.MEM_READ, 7, sender=3, dest=0), now=0)
        times = sorted(t for _, t in fabric.sent)
        assert times[1] - times[0] == 13
        assert times[2] - times[1] == 13

    def test_counters(self):
        fabric = _FakeFabric()
        mc = MemoryController(core=0, fabric=fabric)
        mc.handle(CoherenceMsg(MsgType.MEM_READ, 1, sender=2, dest=0), now=0)
        mc.handle(CoherenceMsg(MsgType.MEM_WRITE, 2, sender=2, dest=0), now=0)
        assert mc.reads == 1 and mc.writes == 1 and mc.accesses == 2
        assert mc.busy_cycles == 26

    def test_rejects_non_memory_messages(self):
        mc = MemoryController(core=0, fabric=_FakeFabric())
        with pytest.raises(ValueError):
            mc.handle(CoherenceMsg(MsgType.SH_REQ, 1, sender=2, dest=0), now=0)
