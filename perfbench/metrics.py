"""What each metric in ``BENCHMARK.json`` means, and what it should move.

``BENCHMARK.json`` at the repository root declares every metric's name,
unit, direction and bound, and ``run.py`` emits them from there.  Its
fixed keys hold no prose, so the meanings live here.  Host-time metrics
are in seconds of the calibration host: each sample group's raw time is
scaled by ``refkernel.NOMINAL_REF_S / measured kernel time`` (see
``refkernel.py``).  Simulated quantities are in cycles.
"""

from __future__ import annotations

#: end-to-end metric -> meaning
END_TO_END = {
    "wall_s": "one cold iteration of the workload through the user path "
              "(spec -> Runner -> fresh store -> energy), imports excluded; "
              "for figures the cold pass over every driver",
    "setup_s": "spec to first simulated event, summed over the specs of one "
               "iteration: config, system or network construction, trace or "
               "traffic generation",
    "sim_cycles_per_s": "simulated cycles per host second of the simulation "
                        "loop (ManycoreSystem.run, or run_load_point less "
                        "traffic generation); invariant to how many events "
                        "a cycle takes",
    "packets_per_s": "network packets simulated per host second of the "
                     "simulation loop",
    "warm_s": "one warm re-render of the workload's outputs from the result "
              "store, no simulation: median over sample groups",
    "peak_rss_mb": "peak resident set size of the process that ran the "
                   "workload",
}

_SETUP = "setup_s, most on figures; nothing on warm_s"
_SIM = "sim_cycles_per_s on app-bcast and figures; nothing on netload"
_COH = "sim_cycles_per_s and wall_s on app-bcast; nothing on netload"
_NET = ("packets_per_s and wall_s, first on netload, then app-bcast; "
        "nothing on warm_s")
_WARM = "warm_s on figures; <=2% of every other pass"
_HOST = "none: describes the measurement itself"

#: per-layer metric -> (the end-to-end metric it should move, and where;
#: meaning)
PER_LAYER = {
    "workloads.gen_s": (_SETUP, "trace generation (generate_traces) or "
                        "synthetic traffic generation "
                        "(SyntheticTraffic.generate)"),
    "sim.build_s": (_SETUP, "set-up other than generation: config, "
                    "ManycoreSystem or network construction"),
    "sim.run_s": (_SIM, "the simulation loop"),
    "sim.events": (_SIM, "events the event queue processed"),
    "sim.us_per_event": (_SIM, "host microseconds of ManycoreSystem.run "
                         "per event"),
    "sim.instructions": (_SIM, "simulated instructions retired; "
                         "sim.instructions / sim.run_s is the simulated "
                         "instruction rate"),
    "sim.calls": (_SIM, "profiled function calls in repro.sim"),
    "sim.self_share": (_SIM, "share of profiled self time in repro.sim"),
    "sim.stalled_cycles": (_SIM, "simulated core cycles stalled on memory"),
    "coherence.calls": (_COH, "profiled function calls in repro.coherence"),
    "coherence.self_share": (_COH, "share of profiled self time in "
                             "repro.coherence"),
    "coherence.l2_misses": (_COH, "simulated L2 misses"),
    "coherence.dir_inv_broadcast": (_COH, "simulated broadcast "
                                    "invalidations sent by directories"),
    "coherence.dir_inv_unicast": (_COH, "simulated unicast invalidations "
                                  "sent by directories"),
    "coherence.mem_reads": (_COH, "simulated memory controller reads"),
    "network.calls": (_NET, "profiled function calls in repro.network"),
    "network.self_share": (_NET, "share of profiled self time in "
                           "repro.network"),
    "network.us_per_packet": (_NET, "host microseconds of Network.send per "
                              "packet, from the span pass, corrected by "
                              "that pass's own kernel samples"),
    "network.packets": (_NET, "packets simulated, warm-up included"),
    "network.broadcasts": (_NET, "broadcast packets simulated"),
    "network.injected_flits": (_NET, "flits injected"),
    "network.mean_latency_cycles": (_NET, "mean simulated packet latency "
                                    "over every delivery counted"),
    "energy.build_s": (_WARM, "EnergyModel construction"),
    "energy.evaluate_s": (_WARM, "EnergyModel.evaluate"),
    "experiments.hash_s": (_WARM, "spec content hashing"),
    "experiments.store_save_s": (_WARM, "ResultStore.save"),
    "experiments.store_load_s": (_WARM, "ResultStore.load"),
    "experiments.store_hits": (_WARM, "store loads that returned a result"),
    "experiments.runner_overhead_s": (_WARM, "Runner.run time outside spec "
                                      "execution and the store"),
    "total.calls_per_event": (_SIM, "profiled calls in ManycoreSystem.run "
                              "per event: exact, repeats run to run"),
    "trace.overhead": (_HOST, "profiled iteration time over the plain "
                       "iteration time, both corrected for host speed (the "
                       "profiled pass by the kernel samples at its two "
                       "ends)"),
    "host.ref_s": (_HOST, "reference kernel time, the host-speed yardstick"),
    "host.raw_wall_s": (_HOST, "wall_s before host-speed correction"),
}
