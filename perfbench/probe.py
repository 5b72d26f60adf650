"""Layer probes: timing wrappers around the public calls of each layer.

The benchmark measures the program from outside.  A :class:`Probe`
replaces a fixed set of public functions and methods with thin wrappers
that add the call's duration and count to per-name totals, and restores
the originals on exit.  With ``spans=True`` it also keeps one span per
call (name, start, end, parent, spec id) for the traced run, written
out as Chrome/Perfetto trace-event JSON.

Counts the layers report themselves (events, packets) are read at the
same boundaries by small hooks that run after the call returns, outside
the timed interval of the call itself.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Totals:
    """Per-name inclusive seconds and call counts, plus layer counters."""

    seconds: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    #: (spec, result) of every spec executed, in execution order
    executed: list[tuple] = field(default_factory=list)

    def s(self, name: str) -> float:
        return self.seconds.get(name, 0.0)

    def n(self, name: str) -> int:
        return self.calls.get(name, 0)

    def c(self, name: str) -> int:
        return self.counters.get(name, 0)

    def add(self, counter: str, value: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value


def _add_network_stats(totals: Totals, stats) -> None:
    totals.add("packets", stats.packets_sent)
    totals.add("broadcasts", stats.broadcasts_sent)
    totals.add("injected_flits", stats.injected_flits)
    totals.add("latency_sum", stats.latency_sum)
    totals.add("latency_count", stats.latency_count)


def _after_run_spec(totals: Totals, args, result) -> None:
    totals.executed.append((args[0], result))
    totals.add("cycles", result.completion_cycles)
    totals.add("instructions", result.total_instructions)
    totals.add("stalled_cycles", result.stalled_cycles)
    totals.add("l2_misses", result.cache_counters.l2_misses)
    totals.add("dir_inv_broadcast", result.dir_inv_broadcast)
    totals.add("dir_inv_unicast", result.dir_inv_unicast)
    totals.add("mem_reads", result.mem_reads)
    _add_network_stats(totals, result.network_stats)


def _after_load_point_spec(totals: Totals, args, point) -> None:
    totals.executed.append((args[0], point))
    totals.add("cycles", args[0].cycles)


def _after_system_run(totals: Totals, args, result) -> None:
    totals.add("events", args[0].eventq.events_processed)


def _after_reset_stats(totals: Totals, args, old_stats) -> None:
    # Open-loop load points drop their warm-up statistics; keep the
    # dropped packets in the count of packets simulated.
    _add_network_stats(totals, old_stats)


def _after_load_point(totals: Totals, args, point) -> None:
    _add_network_stats(totals, args[0].stats)


def _after_store_load(totals: Totals, args, result) -> None:
    if result is not None:
        totals.add("store_hits", 1)


def _targets():
    """(span name, owner, attribute, after-hook) for every probed call.

    Imported lazily: the probe module itself must import without the
    program on ``sys.path`` (the self-tests check the reference kernel
    in isolation).
    """
    from repro.energy.accounting import EnergyModel
    from repro.experiments import runner as runner_mod
    from repro.experiments.runspec import LoadPointSpec, RunSpec
    from repro.experiments.store import ResultStore
    from repro.network.engine import Network
    from repro.sim.system import ManycoreSystem
    from repro.workloads import splash, synthetic

    return [
        ("Runner.run", runner_mod.Runner, "run", None),
        ("RunSpec.execute", RunSpec, "execute", _after_run_spec),
        ("LoadPointSpec.execute", LoadPointSpec, "execute",
         _after_load_point_spec),
        ("content_hash", RunSpec, "content_hash", None),
        ("content_hash", LoadPointSpec, "content_hash", None),
        ("ManycoreSystem", ManycoreSystem, "__init__", None),
        ("generate_traces", splash, "generate_traces", None),
        ("ManycoreSystem.run", ManycoreSystem, "run", _after_system_run),
        ("SyntheticTraffic.generate", synthetic.SyntheticTraffic, "generate",
         None),
        ("run_load_point", synthetic, "run_load_point", _after_load_point),
        ("Network.reset_stats", Network, "reset_stats", _after_reset_stats),
        ("EnergyModel", EnergyModel, "__init__", None),
        ("EnergyModel.evaluate", EnergyModel, "evaluate", None),
        ("ResultStore.save", ResultStore, "save", None),
        ("ResultStore.load", ResultStore, "load", _after_store_load),
    ]


#: Spans kept per spec for ``Network.send``: sends are far too many to
#: keep every one, and the profile already counts them exactly.
SEND_SPANS_PER_SPEC = 500


class Probe:
    """Context manager installing the layer wrappers.

    ``spans=True`` additionally wraps ``Network.send`` and keeps a span
    per call; it is for the traced run only.
    """

    def __init__(self, spans: bool = False) -> None:
        self.totals = Totals()
        self.spans_on = spans
        #: (name, start, end, parent index, spec id), in start order
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._spec_id = ""
        self._sends_in_spec = 0
        self._saved: list[tuple] = []

    # ------------------------------------------------------------------
    def _wrap(self, name, func, after):
        totals = self.totals
        seconds, calls = totals.seconds, totals.calls
        clock = time.perf_counter
        spans = self.spans_on
        probe = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = probe._open(name, args) if spans else None
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                if index is not None:
                    probe._close(index, t1)
                seconds[name] = seconds.get(name, 0.0) + t1 - t0
                calls[name] = calls.get(name, 0) + 1
            if after is not None:
                after(totals, args, result)
            return result
        return wrapper

    def _open(self, name: str, args) -> int | None:
        """Start a span; ``None`` when the span is not kept."""
        if name == "Runner.run":
            self._spec_id = ""
        elif name.endswith(".execute"):
            self._spec_id = args[0].label()
            self._sends_in_spec = 0
        elif name == "Network.send":
            if self._sends_in_spec >= SEND_SPANS_PER_SPEC:
                return None
            self._sends_in_spec += 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self._spec_id])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, end: float) -> None:
        self.spans[index][2] = end
        self._stack.pop()

    # ------------------------------------------------------------------
    def __enter__(self) -> "Probe":
        targets = _targets()
        if self.spans_on:
            from repro.network.engine import Network

            targets.append(("Network.send", Network, "send", None))
        for name, owner, attr, after in targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, after))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # ------------------------------------------------------------------
    def perfetto(self, label: str) -> dict:
        """The kept spans as Chrome/Perfetto trace-event JSON."""
        if not self.spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        origin = self.spans[0][1]
        events = [{"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
                   "args": {"name": label}}]
        for i, (name, start, end, parent, spec) in enumerate(self.spans):
            events.append({
                "ph": "X", "name": name, "pid": 0, "tid": 0,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round(((end or start) - start) * 1e6, 3),
                "args": {"id": i, "parent": parent, "spec": spec},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_perfetto(self, path, label: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.perfetto(label), fh)


# ----------------------------------------------------------------------
# cProfile aggregation by package
# ----------------------------------------------------------------------

#: ``src/repro/<package>/`` -> layer name; ``tech`` is priced by
#: ``energy`` and reported with it.
LAYER_OF_PACKAGE = {
    "workloads": "workloads", "sim": "sim", "network": "network",
    "coherence": "coherence", "energy": "energy", "tech": "energy",
    "experiments": "experiments",
}
LAYERS = ("workloads", "sim", "network", "coherence", "energy",
          "experiments", "other")


def layer_of(filename: str) -> str:
    """The layer a profiled function's source file belongs to."""
    parts = filename.replace("\\", "/").split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro":
            return LAYER_OF_PACKAGE.get(parts[i + 1], "other")
    return "other"


def _generated_code_layers() -> dict:
    """Layer of each method ``dataclasses`` generated in ``repro``.

    Generated methods carry the file name ``<string>``, so their layer
    is the layer of the class that owns them.
    """
    import sys

    out = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro.") or module is None:
            continue
        layer = layer_of(getattr(module, "__file__", "") or "")
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != name:
                continue
            for attr in vars(cls).values():
                code = getattr(attr, "__code__", None)
                if code is not None and code.co_filename == "<string>":
                    out[code] = layer
    return out


def profile_by_layer(*profiles) -> dict[str, dict[str, float]]:
    """Self seconds and calls per layer over ``cProfile.Profile``s.

    Reads the profilers' raw entries, one per code object.  (``pstats``
    keys functions by file, line and name, under which every generated
    dataclass ``__init__`` collides and all but one are dropped.)
    Built-in functions (``heapq``, ``dict.get``, ...) are charged to
    ``other``.
    """
    generated = _generated_code_layers()
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for profile in profiles:
        for entry in profile.getstats():
            code = entry.code
            if isinstance(code, str):
                layer = "other"
            else:
                layer = generated.get(code) or layer_of(code.co_filename)
            row = out[layer]
            row["self_s"] += entry.inlinetime
            row["calls"] += entry.callcount
    return out


def total_calls(profile) -> int:
    """Exact number of calls a ``cProfile.Profile`` recorded."""
    return sum(entry.callcount for entry in profile.getstats())
