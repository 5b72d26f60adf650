"""Packet-level wormhole timing engine.

All networks in this package share one timing methodology: every
contended hardware resource (a router output port, an optical
wavelength channel, a StarNet ingress) is a :class:`PortResource` that
packets *reserve* in simulation-time order.  A packet's head reaches
hop *h* at ``t_h = max(t_{h-1} + hop_latency, port_h.free_at)`` and the
port then serializes the packet's flits.

This reproduces the two behaviours the paper's evaluations depend on:

* **zero-load latency** = ``hops * (router + link delay) + flits``
  (wormhole pipelining), and
* **saturation**: when offered load exceeds a port's service capacity
  its ``free_at`` runs away from wall-clock time and measured latency
  diverges -- the hockey-stick of Figure 3.

The approximation versus flit-accurate wormhole is that buffers are
unbounded (virtual-cut-through-like); DESIGN.md section 7 flags this
and ``benchmarks`` cross-validate zero-load latency analytically.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.network.stats import NetworkStats
from repro.network.topology import MeshTopology
from repro.network.types import BROADCAST, Packet


class PortResource:
    """A single-server resource serialized in reservation order."""

    __slots__ = ("free_at", "busy_cycles")

    def __init__(self) -> None:
        self.free_at = 0
        self.busy_cycles = 0

    def reserve(self, earliest: int, duration: int) -> int:
        """Reserve the port for ``duration`` cycles at or after ``earliest``.

        Returns the actual start time (>= ``earliest``).
        """
        if earliest < 0:
            raise ValueError(f"earliest must be non-negative, got {earliest}")
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        start = max(earliest, self.free_at)
        self.free_at = start + duration
        self.busy_cycles += duration
        return start


class MultiPortResource:
    """A k-server resource (e.g. the two StarNets per cluster, Table I)."""

    __slots__ = ("free_at", "busy_cycles")

    def __init__(self, n_servers: int) -> None:
        if n_servers < 1:
            raise ValueError(f"n_servers must be >= 1, got {n_servers}")
        self.free_at = [0] * n_servers
        self.busy_cycles = 0

    def reserve(self, earliest: int, duration: int) -> int:
        """Reserve the earliest-free server; returns the start time."""
        if earliest < 0:
            raise ValueError(f"earliest must be non-negative, got {earliest}")
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        idx = min(range(len(self.free_at)), key=self.free_at.__getitem__)
        start = max(earliest, self.free_at[idx])
        self.free_at[idx] = start + duration
        self.busy_cycles += duration
        return start


@dataclass(frozen=True)
class MeshTiming:
    """Electrical mesh timing (Table I)."""

    router_delay: int = 1
    link_delay: int = 1

    @property
    def hop_latency(self) -> int:
        return self.router_delay + self.link_delay


class Network(ABC):
    """Common interface of EMesh-Pure, EMesh-BCast and ATAC/ATAC+.

    ``send`` must be called with non-decreasing ``packet.time`` values
    (the event-driven simulator guarantees this); each call reserves
    resources and immediately returns the delivery schedule.
    """

    def __init__(self, topology: MeshTopology, flit_bits: int = 64) -> None:
        if flit_bits <= 0:
            raise ValueError(f"flit_bits must be positive, got {flit_bits}")
        self.topology = topology
        self.flit_bits = flit_bits
        self.stats = NetworkStats()
        self._last_send_time = 0
        # size_bits -> flit count; traffic uses a couple of distinct
        # message sizes, so the ceil-divide is paid once per size.
        self._n_flits_cache: dict[int, int] = {}

    @property
    @abstractmethod
    def name(self) -> str:
        """Architecture label as used in the paper's figures."""

    @abstractmethod
    def _send_unicast(self, pkt: Packet, n_flits: int) -> list[tuple[int, int]]:
        """Deliver a unicast; returns [(dst_core, arrival_time)]."""

    @abstractmethod
    def _send_broadcast(self, pkt: Packet, n_flits: int) -> list[tuple[int, int]]:
        """Deliver a broadcast; returns [(core, arrival_time), ...] for
        every core except the source."""

    def send(self, pkt: Packet) -> list[tuple[int, int]]:
        """Inject a packet; returns the delivery schedule.

        For unicasts the schedule has one entry; for broadcasts, one per
        core on the chip except the sender.
        """
        if pkt.time < self._last_send_time:
            raise ValueError(
                f"sends must be time-ordered: got t={pkt.time} after "
                f"t={self._last_send_time}"
            )
        self._last_send_time = pkt.time
        try:
            n_flits = self._n_flits_cache[pkt.size_bits]
        except KeyError:
            n_flits = self._n_flits_cache[pkt.size_bits] = pkt.n_flits(
                self.flit_bits
            )
        s = self.stats
        s.packets_sent += 1
        s.injected_flits += n_flits
        if pkt.dst == BROADCAST:
            s.broadcasts_sent += 1
            deliveries = self._send_broadcast(pkt, n_flits)
            s.received_broadcast_flits += n_flits * len(deliveries)
            # Accumulate latency inline (same arithmetic as
            # record_latency) rather than one method call per delivery
            # -- a broadcast has n_cores - 1 deliveries.
            t = pkt.time
            lat_sum = 0
            lat_max = s.latency_max
            for _, arrival in deliveries:
                lat = arrival - t
                if lat < 0:
                    raise ValueError(
                        f"latency must be non-negative, got {lat}"
                    )
                lat_sum += lat
                if lat > lat_max:
                    lat_max = lat
            s.latency_sum += lat_sum
            s.latency_count += len(deliveries)
            s.latency_max = lat_max
            return deliveries
        if pkt.dst == pkt.src:
            # Local delivery: no network resources involved.
            s.unicasts_sent += 1
            s.received_unicast_flits += n_flits
            s.record_latency(1)
            return [(pkt.dst, pkt.time + 1)]
        s.unicasts_sent += 1
        deliveries = self._send_unicast(pkt, n_flits)
        s.received_unicast_flits += n_flits
        lat = deliveries[0][1] - pkt.time
        if lat < 0:
            raise ValueError(f"latency must be non-negative, got {lat}")
        s.latency_sum += lat
        s.latency_count += 1
        if lat > s.latency_max:
            s.latency_max = lat
        return deliveries

    def reset_stats(self) -> NetworkStats:
        """Swap in a fresh counter bundle; returns the old one.

        Used to discard warm-up statistics in open-loop load sweeps.
        """
        old = self.stats
        self.stats = NetworkStats()
        return old
