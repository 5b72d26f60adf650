"""The composite ATAC / ATAC+ network (Figure 1).

Three fabrics stitched together:

* **ENet** -- the electrical mesh (shared machinery with the EMesh
  baselines), used (a) for short-distance unicasts per the routing
  policy and (b) to carry flits from a source core to its cluster hub.
* **ONet** -- 64 adaptive SWMR links (one per hub), each a
  single-writer multiple-reader WDM channel with 3-cycle link delay.
* **Receive networks** -- per-cluster BNet (original ATAC) or StarNet
  (ATAC+) delivering from the hub to the cores in one cycle; two
  parallel instances per cluster (Table I).

The unicast routing policy is pluggable (:mod:`repro.network.routing`):
``ClusterRouting`` gives the original ATAC behaviour,
``DistanceRouting(15)`` the ATAC+ default.

A hybrid-path unicast therefore costs::

    ENet(src -> src hub) + hub + ONet channel + hub + StarNet -> dst

and a broadcast::

    ENet(src -> src hub) + hub + ONet broadcast
        + per-cluster (hub + StarNet broadcast) -> every core
"""

from __future__ import annotations

from repro.network.cluster_nets import ReceiveNetTiming, ReceiveNetwork
from repro.network.engine import MeshTiming, PortResource
from repro.network.mesh import _MeshBase
from repro.network.onet import AdaptiveSWMRLink, OnetTiming
from repro.network.routing import ClusterRouting, DistanceRouting, RoutingPolicy
from repro.network.topology import MeshTopology
from repro.network.types import Packet


class AtacNetwork(_MeshBase):
    """ATAC (BNet + cluster routing) or ATAC+ (StarNet + distance routing)."""

    def __init__(
        self,
        topology: MeshTopology,
        flit_bits: int = 64,
        routing: RoutingPolicy | None = None,
        receive_net: str = "starnet",
        mesh_timing: MeshTiming | None = None,
        onet_timing: OnetTiming | None = None,
        receive_timing: ReceiveNetTiming | None = None,
        starnets_per_cluster: int = 2,
        hub_delay: int = 1,
    ) -> None:
        super().__init__(topology, flit_bits, mesh_timing)
        if hub_delay < 0:
            raise ValueError(f"hub_delay must be non-negative, got {hub_delay}")
        self.routing: RoutingPolicy = (
            routing if routing is not None else DistanceRouting(15)
        )
        self.receive_net_kind = receive_net
        self.hub_delay = hub_delay
        self._onet_timing = onet_timing if onet_timing is not None else OnetTiming()
        n_hubs = topology.n_clusters
        self.onet_links = [
            AdaptiveSWMRLink(h, n_hubs, self._onet_timing, self.stats)
            for h in range(n_hubs)
        ]
        self._local_index = {
            core: i
            for c in range(n_hubs)
            for i, core in enumerate(topology.cluster_cores(c))
        }
        # Per-core geometry, flattened once: cluster id and hub position
        # are needed on every send, and the topology calls (int divides
        # plus bounds checks) showed up in per-packet profiles.
        self._cluster_of_core = tuple(
            topology.cluster_of(c) for c in range(topology.n_cores)
        )
        self._hub_of_core = tuple(
            topology.hub_core(cluster) for cluster in self._cluster_of_core
        )
        # src*n_cores+dst -> the unicast's ENet port route, or None when
        # it takes the ONet: one lookup resolves both the routing
        # verdict and the route.  Oblivious policies answer use_onet
        # from (src, dst) alone, so the plan is memoized per core pair;
        # adaptive policies (oblivious=False) are consulted on every send.
        self._unicast_plans: dict[int, tuple[int, ...] | None] | None = (
            {} if self.routing.oblivious else None
        )
        self.receive_nets = [
            ReceiveNetwork(
                cluster=c,
                cluster_size=topology.cluster_size,
                kind=receive_net,
                n_parallel=starnets_per_cluster,
                timing=receive_timing,
                stats=self.stats,
            )
            for c in range(n_hubs)
        ]

    @property
    def name(self) -> str:
        if self.receive_net_kind == "bnet" and isinstance(self.routing, ClusterRouting):
            return "ATAC"
        return "ATAC+"

    # ------------------------------------------------------------------
    def _to_hub(self, src: int, t: int, n_flits: int) -> int:
        """ENet trip from a core to its cluster hub, plus hub ingress."""
        hub_core = self._hub_of_core[src]
        if src != hub_core:
            t = self._traverse(src, hub_core, t, n_flits)
        self.stats.hub_flit_traversals += n_flits
        return t + self.hub_delay

    # ------------------------------------------------------------------
    def _unicast_plan(self, src: int, dst: int) -> tuple[int, ...] | None:
        """ENet port route for a unicast src -> dst, or None for the ONet."""
        if self.routing.use_onet(self.topology, src, dst):
            return None
        return self._route(src, dst)

    def _send_unicast(self, pkt: Packet, n_flits: int) -> list[tuple[int, int]]:
        src = pkt.src
        dst = pkt.dst
        plans = self._unicast_plans
        if plans is None:
            route = self._unicast_plan(src, dst)
        else:
            # Membership test, not try/except: synthetic open-loop
            # traffic misses on most of its (src, dst) pairs.
            key = src * self._n_cores + dst
            if key in plans:
                route = plans[key]
            else:
                route = plans[key] = self._unicast_plan(src, dst)
        if route is not None:
            # Electrical unicast: _traverse over the resolved route,
            # inlined (same reservation arithmetic) -- nearly every
            # ATAC+ unicast takes this path.
            hops = len(route)
            s = self.stats
            s.router_flit_traversals += n_flits * (hops + 1)
            s.link_flit_traversals += n_flits * hops
            s.router_arbitrations += hops + 1
            head = pkt.time
            hop_latency = self._hop_latency
            free_at = self._free_at
            busy = self._busy
            for i in route:
                free = free_at[i]
                start = head if head > free else free
                free_at[i] = start + n_flits
                busy[i] += n_flits
                head = start + hop_latency
            return [(dst, head + n_flits)]

        src_cluster = self._cluster_of_core[src]
        dst_cluster = self._cluster_of_core[dst]
        at_hub = self._to_hub(src, pkt.time, n_flits)
        _, hub_arrival = self.onet_links[src_cluster].transmit(
            at_hub, n_flits, broadcast=False
        )
        # receive-side hub crossing, then the cluster receive network
        self.stats.hub_flit_traversals += n_flits
        arrival = self.receive_nets[dst_cluster].deliver_unicast(
            hub_arrival + self.hub_delay, n_flits, self._local_index[dst]
        )
        return [(dst, arrival)]

    # ------------------------------------------------------------------
    def _deliver_clusters(
        self,
        src: int,
        src_cluster: int,
        at_hub: int,
        hub_arrival: int,
        n_flits: int,
    ) -> list[tuple[int, int]]:
        """Fan a broadcast out of the optical stage into every cluster's
        receive network (shared by the ATAC-family broadcast paths)."""
        topo = self.topology
        deliveries: list[tuple[int, int]] = []
        append = deliveries.append
        n_clusters = topo.n_clusters
        receive_nets = self.receive_nets
        remote_ready = hub_arrival + self.hub_delay
        # Every cluster but the sender's crosses its receive-side hub.
        self.stats.hub_flit_traversals += n_flits * (n_clusters - 1)
        for cluster in range(n_clusters):
            # The sender's own cluster is fed directly from the hub
            # (its own modulated light is not re-detected).
            ready = at_hub if cluster == src_cluster else remote_ready
            arrival = receive_nets[cluster].deliver_broadcast(ready, n_flits)
            for core in topo.cluster_cores(cluster):
                if core != src:
                    append((core, arrival))
        return deliveries

    def _send_broadcast(self, pkt: Packet, n_flits: int) -> list[tuple[int, int]]:
        src = pkt.src
        src_cluster = self._cluster_of_core[src]
        at_hub = self._to_hub(src, pkt.time, n_flits)
        _, hub_arrival = self.onet_links[src_cluster].transmit(
            at_hub, n_flits, broadcast=True
        )
        return self._deliver_clusters(
            src, src_cluster, at_hub, hub_arrival, n_flits
        )

    # ------------------------------------------------------------------
    def onet_utilization(self, total_cycles: int) -> float:
        """Mean adaptive-SWMR link utilization across hubs (Table V)."""
        if total_cycles <= 0:
            raise ValueError(f"total_cycles must be positive, got {total_cycles}")
        utils = [l.utilization(total_cycles) for l in self.onet_links]
        return sum(utils) / len(utils)
