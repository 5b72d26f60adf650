"""Repository benchmark: end-to-end and per-layer metrics of the simulator.

Run from the repository root::

    python3 perfbench/run.py --workload app-bcast --seed 42 --seconds 30 --trace 0

``--trace 0`` is a timed run: it repeats the workload for about
``--seconds`` seconds, with tracing off, and reports the end-to-end
metrics (medians over repetitions).  ``--trace 1`` is the separate
traced run: one plain pass, one cProfile pass and one span pass, which
report the per-layer metrics and write ``.perfbench/<workload>-seed<n>``
``.trace.json`` (Chrome/Perfetto trace-event JSON; open it in the same
viewer as ``repro trace`` output) and ``.profile.txt`` (self time and
calls per package).  Metric names and units are read from
``BENCHMARK.json``, their meanings are in ``metrics.py``; workloads and
output checks in ``workloads.py``.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}

The workload runs in this one process (the reference kernel runs in a
child, see ``refkernel.KernelProcess``): no pool (``Runner(jobs=1)``), a
fresh result store per repetition under ``.perfbench/``, sanitizer and
telemetry off, and every ``REPRO_*`` variable the program reads set
explicitly so that nothing inherited from the caller's environment
changes what is measured.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

import refkernel  # noqa: E402

WORKLOAD_NAMES = ("app-bcast", "netload", "figures")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def isolate_environment(env: dict[str, str]) -> None:
    """Set every ``REPRO_*`` knob the program reads, explicitly.

    The figure drivers default to a ``cpu_count()`` pool and read sizes
    and the store location from the environment at call time, so an
    inherited value could otherwise route a workload through a pool or
    a stale store.  Each repetition then points ``REPRO_CACHE_DIR`` at
    a fresh store of its own.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update({
        "REPRO_JOBS": "1",
        "REPRO_CACHE": "1",
        "REPRO_CACHE_DIR": str(WORK_DIR / "no-store"),
        "REPRO_SANITIZE": "0",
        "REPRO_TELEMETRY": "0",
        "REPRO_LOG": "warning",
        **env,
    })


def import_program() -> None:
    """Import every module a workload reaches, before anything is timed."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro.energy.accounting  # noqa: F401
    import repro.experiments.fig03  # noqa: F401
    import repro.experiments.runner  # noqa: F401
    import repro.experiments.runspec  # noqa: F401
    import repro.sim.system  # noqa: F401
    import repro.tech.scenarios  # noqa: F401
    import repro.workloads.synthetic  # noqa: F401
    from workloads import FIGURE_DRIVERS

    for _, module, _ in FIGURE_DRIVERS:
        __import__(f"repro.experiments.{module}")


# ----------------------------------------------------------------------
# Host-speed correction
# ----------------------------------------------------------------------

#: Minimum workload time between two reference-kernel samples.  Host
#: speed swings by tens of percent within a second here, so long
#: repetitions (``figures``, ``netload``) are corrected piecewise, at
#: segment boundaries.
SAMPLE_EVERY_S = 0.5

#: Repetitions a timed run makes even when they overrun ``--seconds``:
#: one repetition of ``figures`` is half a run, and a median of one
#: would keep a slow first repetition.
MIN_REPS = 2


class HostSpeed:
    """Scales raw host times by host speed sampled around them.

    Workload time is cut into *groups* of at least
    :data:`SAMPLE_EVERY_S`, closed at segment boundaries.  The reference
    kernel is timed at the end of each group, outside it, by ``timer``
    (:meth:`refkernel.KernelProcess.time`); a group's raw times are
    scaled by ``NOMINAL_REF_S`` over the mean of the kernel times at its
    two ends.  ``raw`` and ``scaled`` hold the sums.  Without a
    ``timer`` (the profiled pass, tests) the kernel never runs and
    ``scaled`` equals ``raw``.
    """

    def __init__(self, timer=None) -> None:
        self.timer = timer
        self.ref_s = refkernel.NOMINAL_REF_S
        self.refs: list[float] = []
        if timer is not None:
            gc.collect()
            self.ref_s = timer()
            self.refs.append(self.ref_s)
        self.raw: dict[str, float] = {}
        self.scaled: dict[str, float] = {}
        self._read = None
        self._base: dict[str, float] = {}
        self._t0 = 0.0

    def reset(self) -> None:
        self.raw, self.scaled = {}, {}

    def open(self, read) -> None:
        """Start a group; ``read()`` returns the cumulative quantities
        (clock readings and probe totals) whose growth is timed."""
        self._read = read
        self._base = read()
        self._t0 = time.perf_counter()

    def close(self, force: bool = False, collect: bool = False):
        """End the group if it is long enough (or ``force``).

        Returns the group's raw growth and its scale factor, or ``None``
        while the group stays open.
        """
        now = self._read()
        if not force and time.perf_counter() - self._t0 < SAMPLE_EVERY_S:
            return None
        factor = 1.0
        if self.timer is not None:
            if collect:
                gc.collect()
            ref = self.timer()
            factor = refkernel.NOMINAL_REF_S / ((self.ref_s + ref) / 2)
            self.ref_s = ref
            self.refs.append(ref)
        deltas = {key: value - self._base[key] for key, value in now.items()}
        for key, delta in deltas.items():
            self.raw[key] = self.raw.get(key, 0.0) + delta
            self.scaled[key] = self.scaled.get(key, 0.0) + delta * factor
        self._base = self._read()
        self._t0 = time.perf_counter()
        return deltas, factor


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------

def sim_run_s(totals) -> float:
    """Host seconds in the simulation loop (traffic generation apart)."""
    return (totals.s("ManycoreSystem.run") + totals.s("run_load_point")
            - totals.s("SyntheticTraffic.generate"))


def setup_s(totals) -> float:
    """Host seconds from spec to first simulated event, summed."""
    exec_s = totals.s("RunSpec.execute") + totals.s("LoadPointSpec.execute")
    return exec_s - sim_run_s(totals)


@dataclass
class Rep:
    """One repetition: raw and host-speed-scaled times, and its checks."""

    raw: dict = field(default_factory=dict)
    scaled: dict = field(default_factory=dict)
    #: seconds per warm render, raw and scaled, one per sample group
    warm_raw: list = field(default_factory=list)
    warm_scaled: list = field(default_factory=list)
    totals: object = None
    ops: int = 0
    failures: dict = field(default_factory=dict)
    #: ``{op: output}`` of the cold iteration
    outputs: dict = field(default_factory=dict)


def run_rep(workload, seed: int, warm_renders: int, host: HostSpeed,
            spans: bool = False, profile=None, probe_warm: bool = False):
    """Cold iteration into a fresh store, then ``warm_renders`` renders.

    Returns the :class:`Rep` and the :class:`probe.Probe` that timed the
    layers of the cold iteration (and of one warm render too, with
    ``probe_warm``).  ``profile`` (a :class:`Profiler`) profiles the
    cold iteration in place of the probe.
    """
    import probe
    from workloads import check, op_id, spec_output

    store = Path(tempfile.mkdtemp(prefix="store-", dir=WORK_DIR))
    os.environ["REPRO_CACHE_DIR"] = str(store)
    layer_probe = probe.Probe(spans=spans)
    totals = layer_probe.totals
    clock = time.perf_counter

    def cold_read():
        return {"wall_s": clock(), "setup_s": setup_s(totals),
                "sim_s": sim_run_s(totals)}

    def warm_read():
        return {"warm_s": clock()}

    host.reset()
    rep = Rep(totals=totals)
    cold, warm = {}, {}
    try:
        with profile if profile is not None else layer_probe:
            host.open(cold_read)
            segments = workload.segments()
            for i, segment in enumerate(segments, 1):
                cold.update(segment())
                host.close(force=i == len(segments))
            if probe_warm:
                warm = workload.render()
        rep.raw, rep.scaled = dict(host.raw), dict(host.scaled)
        host.open(warm_read)
        renders = 0
        for i in range(1, warm_renders + 1):
            warm = workload.render()
            renders += 1
            last = i == warm_renders
            group = host.close(force=last, collect=last)
            if group is not None:
                deltas, factor = group
                rep.warm_raw.append(deltas["warm_s"] / renders)
                rep.warm_scaled.append(deltas["warm_s"] * factor / renders)
                renders = 0
        for spec, result in totals.executed:
            cold[op_id(spec)] = spec_output(result)
        rep.outputs = cold
        rep.failures = check(workload.name, seed, cold, warm,
                             complete=profile is None)
        rep.ops = len(set(cold) | set(rep.failures))
    finally:
        shutil.rmtree(store, ignore_errors=True)
    return rep, layer_probe


class Profiler:
    """cProfile over an iteration, with ``ManycoreSystem.run`` apart.

    Calls inside ``ManycoreSystem.run`` go to a second profile, so that
    calls per event counts the simulation loop alone; the two profiles
    together cover the whole iteration.
    """

    def __init__(self) -> None:
        import cProfile

        self.outer = cProfile.Profile()
        self.inner = cProfile.Profile()
        self.events = 0
        self._saved = None

    def __enter__(self) -> "Profiler":
        from repro.sim.system import ManycoreSystem

        original = ManycoreSystem.__dict__["run"]
        outer, inner = self.outer, self.inner
        profiler = self

        def run(system, *args, **kwargs):
            outer.disable()
            inner.enable()
            try:
                return original(system, *args, **kwargs)
            finally:
                inner.disable()
                profiler.events += system.eventq.events_processed
                outer.enable()

        self._saved = original
        ManycoreSystem.run = run
        outer.enable()
        return self

    def __exit__(self, *exc) -> None:
        from repro.sim.system import ManycoreSystem

        self.outer.disable()
        ManycoreSystem.run = self._saved

    def layers(self) -> dict:
        from probe import profile_by_layer

        return profile_by_layer(self.outer, self.inner)

    def calls_per_event(self) -> float:
        from probe import total_calls

        return total_calls(self.inner) / self.events if self.events else 0.0


# ----------------------------------------------------------------------
# Timed run (--trace 0)
# ----------------------------------------------------------------------

def rep_metrics(times: dict, totals) -> dict:
    """End-to-end metrics of one repetition's cold iteration from its
    (raw or scaled) times and its layer counters."""
    return {
        "wall_s": times["wall_s"],
        "setup_s": times["setup_s"],
        "sim_cycles_per_s": totals.c("cycles") / times["sim_s"],
        "packets_per_s": totals.c("packets") / times["sim_s"],
    }


def timed_run(workload, seed: int, seconds: float, timer):
    """Repeat the workload for about ``seconds``; end-to-end metrics."""
    rows, raw_rows = [], []
    warm, warm_raw = [], []
    attempted = failed = 0
    host = HostSpeed(timer)
    start = time.perf_counter()
    while True:
        t_rep = time.perf_counter()
        rep, _ = run_rep(workload, seed, workload.warm_renders, host)
        attempted += rep.ops
        failed += len(rep.failures)
        report_failures(rep.failures)
        rows.append(rep_metrics(rep.scaled, rep.totals))
        raw_rows.append(rep_metrics(rep.raw, rep.totals))
        warm += rep.warm_scaled
        warm_raw += rep.warm_raw
        now = time.perf_counter()
        if len(rows) >= MIN_REPS and now - start + (now - t_rep) > seconds:
            break
    values = {name: statistics.median(r[name] for r in rows)
              for name in rows[0]}
    # Warm renders are short, so each sample group is one sample.
    values["warm_s"] = statistics.median(warm)
    values["peak_rss_mb"] = peak_rss_mb()
    raw = {name: statistics.median(r[name] for r in raw_rows)
           for name in raw_rows[0]}
    raw["warm_s"] = statistics.median(warm_raw)
    raw["ref_s"] = statistics.median(host.refs)
    # Uncorrected medians, for the steadiness record (steadiness.py).
    print(f"perfbench-raw {json.dumps(raw)}", file=sys.stderr)
    print(f"{workload.name}: {len(rows)} repetitions, "
          f"{len(host.refs)} kernel samples", file=sys.stderr)
    return values, attempted, failed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def report_failures(failures: dict) -> None:
    for op, reasons in sorted(failures.items()):
        print(f"output check failed: {op}: {'; '.join(reasons)}",
              file=sys.stderr)


# ----------------------------------------------------------------------
# Traced run (--trace 1)
# ----------------------------------------------------------------------

def traced_run(workload, seed: int, timer):
    """Plain, profiled and span passes; per-layer metrics + artifacts."""
    from probe import LAYERS

    attempted = failed = 0
    host = HostSpeed(timer)
    plain, _ = run_rep(workload, seed, 0, host, probe_warm=True)
    ref_s = statistics.median(host.refs)
    factor = plain.scaled["wall_s"] / plain.raw["wall_s"]

    # Kernel samples inside the profiled pass would be profiled too, so
    # that pass is corrected by the samples at its two ends: the plain
    # pass's last and the span pass's first.
    profiler = Profiler()
    profiled, _ = run_rep(workload, seed, 0, HostSpeed(), profile=profiler)
    span_host = HostSpeed(timer)
    spanned, span_probe = run_rep(workload, seed, 0, span_host,
                                  spans=True, probe_warm=True)
    span_factor = spanned.scaled["wall_s"] / spanned.raw["wall_s"]
    profiled_factor = refkernel.NOMINAL_REF_S / (
        (host.refs[-1] + span_host.refs[0]) / 2)
    for rep in (plain, profiled, spanned):
        attempted += rep.ops
        failed += len(rep.failures)
        report_failures(rep.failures)

    layers = profiler.layers()
    total_self = sum(row["self_s"] for row in layers.values()) or 1.0
    t = plain.totals
    events = t.c("events")
    gen_s = t.s("generate_traces") + t.s("SyntheticTraffic.generate")
    exec_s = t.s("RunSpec.execute") + t.s("LoadPointSpec.execute")
    sends = span_probe.totals
    values = {
        "workloads.gen_s": gen_s * factor,
        "sim.build_s": (setup_s(t) - gen_s) * factor,
        "sim.run_s": sim_run_s(t) * factor,
        "sim.events": events,
        "sim.us_per_event": (t.s("ManycoreSystem.run") / events * 1e6 * factor
                             if events else 0.0),
        "sim.instructions": t.c("instructions"),
        "sim.stalled_cycles": t.c("stalled_cycles"),
        "coherence.l2_misses": t.c("l2_misses"),
        "coherence.dir_inv_broadcast": t.c("dir_inv_broadcast"),
        "coherence.dir_inv_unicast": t.c("dir_inv_unicast"),
        "coherence.mem_reads": t.c("mem_reads"),
        "network.us_per_packet": (sends.s("Network.send") / sends.n("Network.send")
                                  * 1e6 * span_factor
                                  if sends.n("Network.send") else 0.0),
        "network.packets": t.c("packets"),
        "network.broadcasts": t.c("broadcasts"),
        "network.injected_flits": t.c("injected_flits"),
        "network.mean_latency_cycles": (t.c("latency_sum") / t.c("latency_count")
                                        if t.c("latency_count") else 0.0),
        "energy.build_s": t.s("EnergyModel") * factor,
        "energy.evaluate_s": t.s("EnergyModel.evaluate") * factor,
        "experiments.hash_s": t.s("content_hash") * factor,
        "experiments.store_save_s": t.s("ResultStore.save") * factor,
        "experiments.store_load_s": t.s("ResultStore.load") * factor,
        "experiments.store_hits": t.c("store_hits"),
        "experiments.runner_overhead_s": (
            t.s("Runner.run") - exec_s - t.s("ResultStore.save")
            - t.s("ResultStore.load")) * factor,
        "total.calls_per_event": profiler.calls_per_event(),
        "trace.overhead": (profiled.raw["wall_s"] * profiled_factor
                           / plain.scaled["wall_s"]),
        "host.ref_s": ref_s,
        "host.raw_wall_s": plain.raw["wall_s"],
    }
    for layer in ("sim", "coherence", "network"):
        values[f"{layer}.calls"] = layers[layer]["calls"]
        values[f"{layer}.self_share"] = (
            100.0 * layers[layer]["self_s"] / total_self
        )

    stem = WORK_DIR / f"{workload.name}-seed{seed}"
    span_probe.write_perfetto(f"{stem}.trace.json",
                              label=f"perfbench {workload.name} seed {seed}")
    write_profile_table(f"{stem}.profile.txt", layers, LAYERS, total_self)
    print(f"wrote {stem}.trace.json and {stem}.profile.txt", file=sys.stderr)
    return values, attempted, failed


def write_profile_table(path, layers, order, total_self) -> None:
    """Self time, share and calls per layer, as a text table."""
    lines = ["layer         self_s   share%        calls"]
    for layer in order:
        row = layers[layer]
        lines.append(f"{layer:<12} {row['self_s']:8.3f} "
                     f"{100 * row['self_s'] / total_self:8.2f} "
                     f"{row['calls']:12d}")
    calls = sum(row["calls"] for row in layers.values())
    lines.append(f"{'total':<12} {total_self:8.3f} {100.0:8.2f} {calls:12d}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ----------------------------------------------------------------------

def emit(values, attempted: int, failed: int, traced: bool) -> int:
    """Print the result line, with every metric ``BENCHMARK.json``
    declares for the run; the exit code says whether it is correct."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if traced else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared} if values is not None else {}
    correct = values is not None and failed == 0
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    isolate_environment(cls.env)
    try:
        with refkernel.KernelProcess() as kernel:
            import_program()
            workload = cls(args.seed)
            if args.trace:
                values, attempted, failed = traced_run(workload, args.seed,
                                                       kernel.time)
            else:
                values, attempted, failed = timed_run(
                    workload, args.seed, args.seconds, kernel.time)
    except Exception:
        # An operation raised: it counts as attempted and failed.
        traceback.print_exc()
        values, attempted, failed = None, 1, 1
    return emit(values, attempted, failed, traced=bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
