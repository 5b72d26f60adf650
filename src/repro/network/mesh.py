"""The electrical baselines: EMesh-Pure and EMesh-BCast (Section V-A).

Both are 2-D packet-switched meshes with XY dimension-order (oblivious)
routing, wormhole flow control and a single virtual channel, 1-cycle
routers and 1-cycle links (Table I).  They differ only in broadcast
handling:

* **EMesh-Pure**: no multicast hardware -- a broadcast is the source
  injecting N-1 back-to-back unicasts, which serializes at the source
  router and "severely degrad[es] performance for broadcast-heavy
  applications".
* **EMesh-BCast**: routers replicate flits along an XY spanning tree,
  so a broadcast costs one tree traversal.

Hot-path note: ``_traverse`` is called once per mesh packet (and once
per EMesh-Pure broadcast destination).  Port state lives in two flat
``cores x 4`` integer arrays (``_free_at``, ``_busy``) indexed by
``core * 4 + direction``; a cached route is a tuple of such indices, so
the per-hop reservation is pure list arithmetic -- the same arithmetic
as ``PortResource.reserve``, without the object or the call.
"""

from __future__ import annotations

from collections import deque

from repro.network.engine import MeshTiming, Network
from repro.network.topology import MeshTopology
from repro.network.types import Packet

#: Output-port direction indices in the flat port array.
_EAST, _WEST, _SOUTH, _NORTH = 0, 1, 2, 3


class _MeshBase(Network):
    """Shared XY-routed mesh machinery."""

    def __init__(
        self,
        topology: MeshTopology,
        flit_bits: int = 64,
        timing: MeshTiming | None = None,
    ) -> None:
        super().__init__(topology, flit_bits)
        self.timing = timing if timing is not None else MeshTiming()
        # MeshTiming is frozen; the per-hop sum is read on every hop.
        self._hop_latency = self.timing.hop_latency
        self._n_cores = topology.n_cores
        # Flat port-state arrays: entry core*4 + direction is the output
        # port of that core's router facing that neighbour.  ``_free_at``
        # is the cycle the port next becomes free; ``_busy`` accumulates
        # occupied cycles, which the sanitizer's end-of-run port audit
        # reads back (and its double-reserve fault injector corrupts).
        self._free_at: list[int] = [0] * (topology.n_cores * 4)
        self._busy: list[int] = [0] * (topology.n_cores * 4)
        # Which port indices have been referenced by a route (the old
        # lazily-created-port count, kept observable for tests).
        self._port_seen = bytearray(topology.n_cores * 4)
        # (src, dst) -> tuple of port indices along the XY route, in hop
        # order.  Repeated sends between the same pair then reduce to a
        # walk over two flat arrays -- no coordinate math.
        self._route_ports: dict[int, tuple[int, ...]] = {}

    def _port(self, u: int, v: int) -> int:
        """Index of the output port of router ``u`` facing neighbour ``v``."""
        delta = v - u
        if delta == 1:
            d = _EAST
        elif delta == -1:
            d = _WEST
        elif delta == self.topology.width:
            d = _SOUTH
        elif delta == -self.topology.width:
            d = _NORTH
        else:
            raise ValueError(f"cores {u} and {v} are not mesh neighbours")
        idx = u * 4 + d
        self._port_seen[idx] = 1
        return idx

    def _route_ports_for(self, src: int, dst: int) -> tuple[int, ...]:
        """Port indices along the XY route src -> dst, in hop order."""
        w = self.topology.width
        x, y = src % w, src // w
        dx, dy = dst % w, dst // w
        # Output port u*4+d of every router u the packet leaves: along
        # the row to the turn router, then along the column to dst.
        turn = src + (dx - x)
        xd, xstep = (_EAST, 4) if dx > x else (_WEST, -4)
        yd, ystep = (_SOUTH, 4 * w) if dy > y else (_NORTH, -4 * w)
        route = (
            *range(src * 4 + xd, turn * 4 + xd, xstep),
            *range(turn * 4 + yd, dst * 4 + yd, ystep),
        )
        seen = self._port_seen
        for idx in route:
            seen[idx] = 1
        return route

    def _route(self, src: int, dst: int) -> tuple[int, ...]:
        """The memoized XY route src -> dst (for cold paths; _traverse
        inlines the lookup)."""
        key = src * self._n_cores + dst
        route = self._route_ports.get(key)
        if route is None:
            route = self._route_ports[key] = self._route_ports_for(src, dst)
        return route

    def _traverse(self, src: int, dst: int, t: int, n_flits: int) -> int:
        """Route one packet src->dst starting at time t; returns arrival.

        Reserves each output port along the (cached) XY route; counts
        router/link flit traversals for the energy model.  Reservations
        are inlined (same arithmetic as ``PortResource.reserve``) --
        this loop runs once per hop of every mesh packet and the call
        and attribute overhead dominated it.
        """
        key = src * self._n_cores + dst
        route_ports = self._route_ports
        if key in route_ports:
            route = route_ports[key]
        else:
            route = route_ports[key] = self._route_ports_for(src, dst)
        hops = len(route)
        s = self.stats
        s.router_flit_traversals += n_flits * (hops + 1)  # incl. ejection router
        s.link_flit_traversals += n_flits * hops
        s.router_arbitrations += hops + 1
        head = t
        hop_latency = self._hop_latency
        free_at = self._free_at
        busy = self._busy
        for i in route:
            free = free_at[i]
            start = head if head > free else free
            free_at[i] = start + n_flits
            busy[i] += n_flits
            head = start + hop_latency
        # head has arrived; the tail needs the serialization time.
        return head + n_flits

    def mesh_port_count(self) -> int:
        """Ports referenced by some route so far -- for tests."""
        return sum(self._port_seen)


class EMeshPure(_MeshBase):
    """Plain electrical mesh: broadcasts are N-1 serialized unicasts."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # src -> ((dst, route-ports), ...) for every dst, plus the total
        # hop count, built on a source's first broadcast.  A broadcast
        # here is N-1 unicast traversals, so the per-destination route
        # lookup is the dominant cost without this.
        self._bcast_plan: dict[int, tuple] = {}

    @property
    def name(self) -> str:
        return "EMesh-Pure"

    def _send_unicast(self, pkt: Packet, n_flits: int) -> list[tuple[int, int]]:
        arrival = self._traverse(pkt.src, pkt.dst, pkt.time, n_flits)
        return [(pkt.dst, arrival)]

    def _bcast_plan_for(self, src: int) -> tuple:
        routes = []
        total_hops = 0
        for dst in range(self._n_cores):
            if dst == src:
                continue
            route = self._route(src, dst)
            routes.append((dst, route))
            total_hops += len(route)
        return tuple(routes), total_hops

    def _send_broadcast(self, pkt: Packet, n_flits: int) -> list[tuple[int, int]]:
        # The source's network interface injects one unicast per
        # destination; they contend for the source's output ports and
        # serialize there, which is exactly the EMesh-Pure penalty.
        # Same reservation math as _traverse, run over the precomputed
        # per-source plan (destinations in ascending order, as always).
        src = pkt.src
        plan = self._bcast_plan.get(src)
        if plan is None:
            plan = self._bcast_plan[src] = self._bcast_plan_for(src)
        routes, total_hops = plan
        s = self.stats
        n_dsts = len(routes)
        s.router_flit_traversals += n_flits * (total_hops + n_dsts)
        s.link_flit_traversals += n_flits * total_hops
        s.router_arbitrations += total_hops + n_dsts
        t = pkt.time
        hop_latency = self._hop_latency
        free_at = self._free_at
        busy = self._busy
        deliveries = []
        append = deliveries.append
        for dst, route in routes:
            head = t
            for i in route:
                free = free_at[i]
                start = head if head > free else free
                free_at[i] = start + n_flits
                busy[i] += n_flits
                head = start + hop_latency
            append((dst, head + n_flits))
        return deliveries


class EMeshBCast(_MeshBase):
    """Electrical mesh with native multicast at each router."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # src -> (edges, order): the spanning tree flattened breadth-
        # first into (parent_slot, port) pairs plus the canonical
        # delivery order as (core, slot) pairs; built on a source's
        # first broadcast.
        self._bcast_plan: dict[int, tuple] = {}

    @property
    def name(self) -> str:
        return "EMesh-BCast"

    def _send_unicast(self, pkt: Packet, n_flits: int) -> list[tuple[int, int]]:
        arrival = self._traverse(pkt.src, pkt.dst, pkt.time, n_flits)
        return [(pkt.dst, arrival)]

    def _bcast_plan_for(self, src: int) -> tuple:
        """Flatten the XY spanning tree rooted at ``src`` for replay.

        Nodes get *slots* in breadth-first visitation order (root = 0);
        ``edges[i]`` is ``(parent_slot, port_index)`` for the node in
        slot ``i + 1``, so a single pass over ``edges`` computes every
        head time (a parent's slot always precedes its children's).
        """
        topo = self.topology
        tree = topo.broadcast_tree(src)
        slot_of = {src: 0}
        edges: list[tuple[int, int]] = []
        frontier = deque((src,))
        while frontier:
            node = frontier.popleft()
            parent_slot = slot_of[node]
            for child in tree[node]:
                slot_of[child] = len(edges) + 1
                edges.append((parent_slot, self._port(node, child)))
                frontier.append(child)
        order = tuple(
            (core, slot_of[core]) for core in topo.broadcast_order(src)
        )
        return tuple(edges), order

    def _send_broadcast(self, pkt: Packet, n_flits: int) -> list[tuple[int, int]]:
        # Breadth-first replay of the (precomputed) XY spanning tree.
        # Each tree edge is an independently reserved port, so
        # replication fans out in parallel (native hardware multicast).
        # Per-node timing is traversal-order-independent (each tree edge
        # is reserved exactly once and a child's head time depends only
        # on its parent's), so the flattened BFS replay computes the
        # same arrivals the engine always has.  Deliveries are emitted
        # in the topology's canonical ``broadcast_order``: that order
        # decides event-queue tie-breaks downstream and is frozen as
        # part of the determinism contract.
        src = pkt.src
        plan = self._bcast_plan.get(src)
        if plan is None:
            plan = self._bcast_plan[src] = self._bcast_plan_for(src)
        edges, order = plan
        n_edges = len(edges)
        s = self.stats
        s.router_flit_traversals += n_flits * (n_edges + 1)  # + source router
        s.link_flit_traversals += n_flits * n_edges
        s.router_arbitrations += n_edges + 1
        hop_latency = self._hop_latency
        free_at = self._free_at
        busy = self._busy
        heads = [0] * (n_edges + 1)
        heads[0] = pkt.time
        slot = 1
        for parent_slot, i in edges:
            head = heads[parent_slot]
            free = free_at[i]
            start = head if head > free else free
            free_at[i] = start + n_flits
            busy[i] += n_flits
            heads[slot] = start + hop_latency
            slot += 1
        return [(core, heads[slot] + n_flits) for core, slot in order]
