"""The manycore chip: cores + caches + directories + network, one clock.

:class:`ManycoreSystem` is the "fabric" the coherence controllers talk
through.  Every protocol message is scheduled onto the event queue at
its logical send time, so the (stateful, reservation-based) network
model always sees time-ordered sends even though cores sprint through
compute phases inline -- the same loose-synchronization trick Graphite
uses, with the network as the serialization point.
"""

from __future__ import annotations

from dataclasses import fields

from repro import env_flag
from repro.coherence.directory import DirectoryController, Protocol
from repro.coherence.l2controller import CacheCounters, L2Controller
from repro.coherence.memory import MemoryController, MemoryTiming
from repro.coherence.messages import MSG_BITS, CoherenceMsg, MsgType
from repro.coherence.sequencing import DirectorySequencer
from repro.network.atac import AtacNetwork
from repro.network.types import BROADCAST, Packet
from repro.sim.barrier import BarrierManager
from repro.sim.config import SystemConfig, make_network
from repro.sim.core_model import CoreModel
from repro.sim.eventq import EventQueue
from repro.sim.results import RunResult
from repro.workloads.trace import CoreTrace

#: Which controller receives each message type.  Every type is listed
#: exactly once, so the per-type receiver table built from this covers
#: the whole vocabulary (``tests/sim/test_system.py`` checks that): a
#: new message type fails there instead of being routed by default.
_MEMCTRL_TYPES = frozenset((MsgType.MEM_READ, MsgType.MEM_WRITE))
_DIRECTORY_TYPES = frozenset((
    MsgType.SH_REQ, MsgType.EX_REQ, MsgType.EVICT_NOTIFY,
    MsgType.DIRTY_WB, MsgType.INV_ACK, MsgType.FLUSH_REP,
    MsgType.WB_REP, MsgType.MEM_DATA, MsgType.MEM_WRITE_ACK,
))
_L2_TYPES = frozenset((
    MsgType.INV_REQ, MsgType.INV_BCAST, MsgType.FLUSH_REQ, MsgType.WB_REQ,
    MsgType.FWD_REQ, MsgType.FWD_DATA, MsgType.SH_REP, MsgType.EX_REP,
    MsgType.WB_ACK,
))

#: Probe kinds in the order their hooks run, outermost first.  A probe
#: has a ``kind`` and any of these hooks (DESIGN.md section 10):
#: ``on_send(msg, time)`` before a message is queued (a true return
#: drops it), ``on_net_send(pkt, deliveries)`` after the network
#: scheduled a packet, ``on_barrier(barrier_id, now, released)``,
#: ``on_run_start()``, ``on_run_end(result)``, and ``on_run_error(exc)``
#: on a deadlock/livelock ``RuntimeError`` (it may raise a replacement).
#: So a fault probe drops a message before anything observes it, and
#: the telemetry closes its last window before the sanitizer's
#: end-of-run audit can raise.  Only ``on_net_send`` runs in reverse.
PROBE_ORDER = ("fault", "telemetry", "sanitizer")


class ManycoreSystem:
    """One configured chip, ready to run one workload.

    ``batch_broadcasts`` selects the broadcast delivery path: batched
    (default -- one event per distinct arrival time, dispatching to the
    member caches inline) or the reference one-event-per-core path.
    Both produce identical simulations (see DESIGN.md section 9 and
    ``tests/integration/test_fastpath_equivalence.py``); the reference
    path exists as the oracle the equivalence tests compare against.

    ``sanitize`` attaches the runtime invariant checker
    (:mod:`repro.sanitizer`, DESIGN.md section 10): every event is then
    audited for cross-layer consistency -- SWMR, directory/cache
    agreement, sequencing order, flit conservation -- at roughly 2-3x
    simulation cost, raising :class:`InvariantViolation` on failure.
    ``None`` (the default) defers to the ``REPRO_SANITIZE`` environment
    variable; ``False`` is a hard off that perf-sensitive callers
    should pass explicitly.

    ``telemetry`` attaches the observability collector
    (:mod:`repro.telemetry`, DESIGN.md section 12): windowed counter
    snapshots plus a bounded event trace, simulation byte-identical.
    Accepts ``True``/``False``, a
    :class:`~repro.telemetry.collector.TelemetryConfig` (to control the
    window length and output directory), or ``None`` to defer to the
    ``REPRO_TELEMETRY`` environment variable.

    Both are *probes*, kept in :attr:`probes` in :data:`PROBE_ORDER`.
    The instrumented fabric is selected once, here: a system without
    probes runs the plain ``send_msg`` -> ``_inject`` -> ``Network.send``
    path and pays nothing -- not even an import -- for instrumentation.
    """

    def __init__(self, config: SystemConfig, batch_broadcasts: bool = True,
                 sanitize: bool | None = None,
                 telemetry=None) -> None:
        self.config = config
        self.batch_broadcasts = batch_broadcasts
        self.topology = config.topology
        self.network = make_network(config)
        self.eventq = EventQueue()

        topo = self.topology
        self.compute_cores = topo.compute_cores()
        if not self.compute_cores:
            raise ValueError(
                "degenerate topology: every core slot is a memory "
                "controller (cluster_width=1); use clusters of >= 4 cores"
            )
        self._compute_set = set(self.compute_cores)
        self._n_compute = len(self.compute_cores)
        self.memctrl_positions = topo.memctrl_cores()
        self._cluster_memctrl = {
            c: topo.memctrl_core(c) for c in range(topo.n_clusters)
        }
        # Flat per-core tables: home_of / slice_of_home / memctrl_for run
        # once per coherence message, so they must be plain indexed
        # lookups rather than repeated topology arithmetic.
        self._slice_of_core = tuple(
            topo.cluster_of(c) for c in range(topo.n_cores)
        )
        self._memctrl_of_core = tuple(
            self._cluster_memctrl[s] for s in self._slice_of_core
        )

        mem_timing = MemoryTiming(
            latency_cycles=config.mem_latency,
            bytes_per_cycle=config.mem_bytes_per_cycle,
        )
        self.memctrls = {
            pos: MemoryController(pos, self, mem_timing)
            for pos in self.memctrl_positions
        }

        self.sequencer = DirectorySequencer(topo.n_clusters)
        silent = config.protocol is Protocol.DIRKB
        self.caches: dict[int, L2Controller] = {}
        self.directories: dict[int, DirectoryController] = {}
        for core in self.compute_cores:
            self.caches[core] = L2Controller(
                core,
                self,
                l1_sets=config.l1_sets,
                l1_ways=config.l1_ways,
                l2_sets=config.l2_sets,
                l2_ways=config.l2_ways,
                l1_hit_latency=config.l1_hit_latency,
                l2_hit_latency=config.l2_hit_latency,
                fill_latency=config.fill_latency,
                n_slices=topo.n_clusters,
                silent_clean_evictions=silent,
                sequencing=config.sequencing,
            )
            self.directories[core] = DirectoryController(
                core,
                self,
                protocol=config.protocol,
                hardware_sharers=config.hardware_sharers,
                sequencer=self.sequencer if config.sequencing else None,
                slice_id=topo.cluster_of(core),
                dir_latency=config.dir_latency,
            )
        #: message type -> {core: controller}: the receiver of every
        #: unicast, resolved by one indexed lookup per delivery.
        self._receivers: dict[MsgType, dict] = {}
        for receivers, types in (
            (self.memctrls, _MEMCTRL_TYPES),
            (self.directories, _DIRECTORY_TYPES),
            (self.caches, _L2_TYPES),
        ):
            for mt in types:
                self._receivers[mt] = receivers
        self.cores: dict[int, CoreModel] = {}
        self.barriers: BarrierManager | None = None
        # Reused injection packet (see _inject).
        self._pkt = Packet(src=0, dst=0, size_bits=1, time=0)

        self.sanitize = (
            env_flag("REPRO_SANITIZE") if sanitize is None else sanitize
        )
        if telemetry is None:
            telemetry = env_flag("REPRO_TELEMETRY")
        self.probes: list = []
        self.sanitizer = None
        self.telemetry = None
        # Imported only when enabled: the instrumentation costs nothing
        # -- not even an import -- on a plain run.
        if self.sanitize:
            from repro.sanitizer.core import Sanitizer
            from repro.sanitizer.hooks import (
                L1CacheProxy, L2CacheProxy, SanitizedEventQueue,
            )

            san = self.sanitizer = Sanitizer(self)
            # The sanitizer's own object replacements: a checking event
            # queue and cache proxies that mirror every L1/L2 state
            # change into its holder index.
            self.eventq = SanitizedEventQueue(san)
            for core, ctrl in self.caches.items():
                l2 = ctrl.l2
                ctrl.l2 = L2CacheProxy(l2, san, core)
                ctrl.l1d = L1CacheProxy(ctrl.l1d, san, core, l2)
            self.probes.append(san)
        if telemetry:
            from repro.telemetry.collector import (
                TelemetryCollector, TelemetryConfig,
            )

            cfg = (
                telemetry if isinstance(telemetry, TelemetryConfig)
                else TelemetryConfig()
            )
            self.telemetry = TelemetryCollector(self, cfg)
            self.probes.append(self.telemetry)
        if self.probes:
            # The instrumented fabric: protocol messages and packets
            # pass the probe hooks on their way through.
            self._network_send = self.network.send
            self.network.send = self._probed_network_send
            self.send_msg = self._probed_send_msg
            self._order_probes()

    def add_probe(self, probe) -> None:
        """Attach ``probe`` (a fault injector) before :meth:`run`; only
        a system built with ``sanitize`` or ``telemetry`` has the
        instrumented fabric that calls it."""
        if not self.probes:
            raise ValueError(
                "probes need an instrumented system: build it with "
                "sanitize=True or telemetry"
            )
        self.probes.append(probe)
        self._order_probes()

    def _order_probes(self) -> None:
        self.probes.sort(key=lambda probe: PROBE_ORDER.index(probe.kind))
        self._on_send = self._hooks("on_send")
        # Innermost first, like the after-call half of a wrapper: the
        # sanitizer audits a packet before the telemetry records it.
        self._on_net_send = self._hooks("on_net_send")[::-1]
        self._on_barrier = self._hooks("on_barrier")

    def _hooks(self, name: str) -> tuple:
        return tuple(
            getattr(probe, name) for probe in self.probes
            if hasattr(probe, name)
        )

    # ------------------------------------------------------------------
    # Fabric interface used by the coherence controllers
    # ------------------------------------------------------------------
    def home_of(self, address: int) -> int:
        """Static home core for a line (directory distributed over all
        compute cores, Section III-B)."""
        return self.compute_cores[address % self._n_compute]

    def memctrl_for(self, core: int) -> int:
        """The memory controller nearest a home core: its own cluster's."""
        return self._memctrl_of_core[core]

    def slice_of_home(self, core: int) -> int:
        """Directory slice (= cluster) of a home core, for seq numbers."""
        return self._slice_of_core[core]

    @property
    def all_cores_ack_broadcasts(self) -> bool:
        """Dir_kB collects acknowledgements from every core."""
        return self.config.protocol is Protocol.DIRKB

    def n_broadcast_ackers(self, home: int) -> int:
        """Cores that will acknowledge a Dir_kB broadcast from ``home``:
        every compute core (including the home itself, whose own L2
        receives the invalidation by local loopback)."""
        return len(self.compute_cores)

    # ------------------------------------------------------------------
    def send_msg(self, msg: CoherenceMsg, time: int) -> None:
        """Queue a protocol message for network injection at ``time``."""
        eventq = self.eventq
        now = eventq.now
        eventq.schedule(time if time > now else now, self._inject, msg)

    def _probed_send_msg(self, msg: CoherenceMsg, time: int) -> None:
        for hook in self._on_send:
            if hook(msg, time):
                return  # dropped by a fault probe
        ManycoreSystem.send_msg(self, msg, time)

    def _probed_network_send(self, pkt: Packet) -> list[tuple[int, int]]:
        deliveries = self._network_send(pkt)
        for hook in self._on_net_send:
            hook(pkt, deliveries)
        return deliveries

    def _probed_arrive(self, barrier_id: int, now: int, resume) -> None:
        barriers = self.barriers
        completed = barriers.barriers_completed
        BarrierManager.arrive(barriers, barrier_id, now, resume)
        released = barriers.barriers_completed != completed
        for hook in self._on_barrier:
            hook(barrier_id, now, released)

    def _inject(self, msg: CoherenceMsg, now: int) -> None:
        # One pooled Packet, refilled per injection: Network.send reads
        # the packet synchronously and never retains it, and _inject
        # runs once per protocol message, so the per-message dataclass
        # construction (and its validation) was pure overhead.
        pkt = self._pkt
        mt = msg.mtype
        pkt.src = msg.sender
        pkt.size_bits = MSG_BITS[mt]
        pkt.time = now
        if mt is MsgType.INV_BCAST:
            pkt.dst = BROADCAST
            deliveries = self.network.send(pkt)
            compute = self._compute_set
            schedule = self.eventq.schedule
            if self.batch_broadcasts:
                # Batched fan-out: one heap event per distinct arrival
                # time instead of one per core.  Within one arrival the
                # member caches are dispatched inline in delivery-list
                # order -- exactly the order the per-core path would
                # process them, since all per-core events are scheduled
                # consecutively here (their seqs are contiguous, so no
                # foreign event can interleave; see DESIGN.md sec. 9).
                # Deliveries come in runs of equal arrival (a cluster at
                # a time), so the group is looked up once per run.
                groups: dict[int, list[int]] = {}
                last = None
                for core, arrival in deliveries:
                    if core in compute:
                        if arrival != last:
                            last = arrival
                            if arrival in groups:
                                group = groups[arrival]
                            else:
                                group = groups[arrival] = []
                        group.append(core)
                deliver = self._deliver_broadcast_group
                for arrival, cores in groups.items():
                    schedule(arrival, deliver, (msg, cores))
            else:
                caches = self.caches
                for core, arrival in deliveries:
                    if core in compute:
                        schedule(arrival, caches[core].handle, msg)
            # Local loopback: the home's own L2 must also see the
            # invalidation (the network never delivers to the sender).
            if msg.sender in compute:
                schedule(now + 1, self.caches[msg.sender].handle, msg)
            return
        pkt.dst = msg.dest
        [(core, arrival)] = self.network.send(pkt)
        # .handle is looked up per delivery, not pre-bound in the table:
        # tests replace it on the instance to lose or delay messages.
        self.eventq.schedule(arrival, self._receivers[mt][core].handle, msg)

    def _deliver_broadcast_group(
        self, batch: tuple[CoherenceMsg, list[int]], now: int
    ) -> None:
        """Dispatch one broadcast to every member cache of one arrival
        group, inline, in delivery order."""
        msg, cores = batch
        caches = self.caches
        slice_id = self._slice_of_core[msg.sender]
        for core in cores:
            caches[core].handle_broadcast(msg, slice_id, now)

    # ------------------------------------------------------------------
    # Running workloads
    # ------------------------------------------------------------------
    def run(self, traces: dict[int, CoreTrace], app: str = "workload",
            max_events: int | None = None) -> RunResult:
        """Execute one trace per compute core to completion."""
        missing = self._compute_set - set(traces)
        if missing:
            raise ValueError(
                f"{len(missing)} compute cores have no trace "
                f"(e.g. core {min(missing)})"
            )
        extra = set(traces) - self._compute_set
        if extra:
            raise ValueError(
                f"traces supplied for non-compute cores: {sorted(extra)[:4]}"
            )
        self.barriers = BarrierManager(len(self.compute_cores), self.eventq)
        for core in self.compute_cores:
            cm = CoreModel(
                core, traces[core], self.caches[core], self.barriers, self.eventq
            )
            self.cores[core] = cm
            cm.start()
        if self.probes and self._on_barrier:
            self.barriers.arrive = self._probed_arrive
        for hook in self._hooks("on_run_start"):
            hook()
        try:
            self.eventq.run(max_events=max_events)
            not_done = [c for c, cm in self.cores.items() if not cm.done]
            if not_done:
                raise RuntimeError(
                    f"deadlock: {len(not_done)} cores never finished "
                    f"(e.g. core {not_done[0]}); event queue drained"
                )
        except RuntimeError as exc:
            for hook in self._hooks("on_run_error"):
                hook(exc)
            raise
        result = self._collect(app)
        for hook in self._hooks("on_run_end"):
            hook(result)
        return result

    def _collect(self, app: str) -> RunResult:
        completion = max(cm.done_at for cm in self.cores.values())
        counters = CacheCounters()
        for cc in self.caches.values():
            for f in fields(CacheCounters):
                setattr(
                    counters, f.name,
                    getattr(counters, f.name) + getattr(cc.counters, f.name),
                )
        dir_lookups = sum(d.stats.lookups for d in self.directories.values())
        dir_updates = sum(d.stats.updates for d in self.directories.values())
        dir_inv_u = sum(
            d.stats.invalidations_unicast for d in self.directories.values()
        )
        dir_inv_b = sum(
            d.stats.invalidations_broadcast for d in self.directories.values()
        )
        onet_util = 0.0
        if isinstance(self.network, AtacNetwork) and completion > 0:
            onet_util = self.network.onet_utilization(completion)
        per_core = [self.cores[c].instructions for c in self.compute_cores]
        return RunResult(
            app=app,
            network=self.network.name,
            completion_cycles=completion,
            n_cores=self.topology.n_cores,
            n_compute_cores=len(self.compute_cores),
            total_instructions=sum(per_core),
            per_core_instructions=per_core,
            stalled_cycles=sum(cm.stalled_cycles for cm in self.cores.values()),
            network_stats=self.network.stats,
            cache_counters=counters,
            dir_lookups=dir_lookups,
            dir_updates=dir_updates,
            dir_inv_unicast=dir_inv_u,
            dir_inv_broadcast=dir_inv_b,
            mem_reads=sum(m.reads for m in self.memctrls.values()),
            mem_writes=sum(m.writes for m in self.memctrls.values()),
            barriers_completed=self.barriers.barriers_completed,
            freq_hz=self.config.freq_hz,
            onet_utilization=onet_util,
            flit_bits=self.config.flit_bits,
            hardware_sharers=self.config.hardware_sharers,
            protocol=self.config.protocol.value,
        )
