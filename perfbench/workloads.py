"""The benchmark's three workloads and their output checks.

Each workload builds its inputs from the seed alone, runs one *cold*
iteration through the program's user path into a fresh result store,
then re-renders its outputs from the warm store (no simulation).  Every
iteration is a list of *operations* -- spec executions, load points
and renders -- and each operation's output is checked:

* on :data:`DEFAULT_SEED` against the digests pinned in ``pins.json``;
* on every seed against seed-independent invariants: every core
  finished, a warm re-render (a result store round trip) reproduces the
  cold result exactly, and each energy breakdown constructs.

Host-side counts (events, calls) are never pinned: they describe the
simulator, not the simulated chip.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import asdict
from pathlib import Path

#: The seed whose outputs are pinned.  42 is the program's own default
#: trace seed, so the pinned app-bcast run is ``repro bench``'s
#: ``barnes@atac+/w16`` point.
DEFAULT_SEED = 42

PINS_PATH = Path(__file__).with_name("pins.json")


def digest(value) -> str:
    """Stable short digest of a JSON-able value."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_pins() -> dict:
    try:
        return json.loads(PINS_PATH.read_text())
    except FileNotFoundError:
        return {}


# ----------------------------------------------------------------------
# Output values: plain JSON for digests and exact comparison
# ----------------------------------------------------------------------

def op_id(spec) -> str:
    """Operation id of one spec execution: kind, label and parameters."""
    kind = "run" if spec.kind == "run" else "point"
    return f"{kind}:{spec.label()}#{digest(spec.to_dict())[:8]}"


def spec_output(result) -> dict:
    """Output value of one executed spec (``RunResult`` or load point)."""
    if hasattr(result, "to_dict"):
        return result.to_dict()
    return asdict(result)


def _energy_output(breakdown) -> dict:
    return {"scenario": breakdown.scenario, "components": breakdown.components}


# ----------------------------------------------------------------------
# Invariants (any seed)
# ----------------------------------------------------------------------

def run_invariant_errors(out: dict) -> list[str]:
    """Seed-independent checks on one ``RunResult`` output."""
    errors = []
    per_core = out["per_core_instructions"]
    if out["completion_cycles"] <= 0:
        errors.append("completion_cycles <= 0")
    if len(per_core) != out["n_compute_cores"]:
        errors.append("per-core instruction count missing cores")
    if any(n <= 0 for n in per_core):
        errors.append("a core retired no instructions")
    if sum(per_core) != out["total_instructions"]:
        errors.append("total_instructions != sum of per-core counts")
    if out["network_stats"]["packets_sent"] <= 0:
        errors.append("no packets sent")
    return errors


def point_invariant_errors(out: dict) -> list[str]:
    errors = []
    if out["packets"] <= 0:
        errors.append("no packets measured")
    if not (math.isfinite(out["mean_latency"]) and out["mean_latency"] > 0):
        errors.append("mean latency not positive and finite")
    if out["measured_load"] <= 0:
        errors.append("measured load <= 0")
    return errors


def energy_invariant_errors(out: dict) -> list[str]:
    comps = out["components"]
    if not comps or not all(math.isfinite(v) and v >= 0 for v in comps.values()):
        return ["energy components not finite and non-negative"]
    if sum(comps.values()) <= 0:
        return ["zero chip energy"]
    return []


def render_invariant_errors(out) -> list[str]:
    return [] if out else ["empty render"]


INVARIANTS = {
    "run": run_invariant_errors,
    "point": point_invariant_errors,
    "energy": energy_invariant_errors,
    "render": render_invariant_errors,
}


def check(workload: str, seed: int, cold: dict, warm: dict,
          complete: bool = True) -> dict[str, list[str]]:
    """Failed operations of one iteration: ``{op: [reasons]}``.

    ``cold`` and ``warm`` map operation ids (``"<kind>:<name>"``) to
    output values; a warm output must equal its cold one exactly.
    ``complete=False`` accepts a cold iteration that carries only its
    renders (the profiled pass does not capture spec executions).
    """
    failures: dict[str, list[str]] = {}
    pinned = None
    if seed == DEFAULT_SEED:
        pinned = load_pins().get(workload, {})
        if complete:
            for op in sorted(set(pinned) - set(cold)):
                failures[op] = ["pinned operation missing"]
    for op, out in cold.items():
        errors = list(INVARIANTS[op.split(":", 1)[0]](out))
        if op in warm and warm[op] != out:
            errors.append("warm re-render differs from the cold result")
        if pinned is not None and pinned.get(op) != digest(out):
            errors.append("digest differs from the pinned digest")
        if errors:
            failures[op] = errors
    for op in sorted(set(warm) - set(cold)):
        failures[op] = ["warm operation without a cold result"]
    return failures


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class Workload:
    """One benchmark workload.

    An iteration is a list of *segments*, each a call that renders part
    of the outputs; the benchmark samples host speed between segments.
    A cold iteration runs them into a fresh store, a warm re-render
    runs them again from the warm store.  ``env`` is the ``REPRO_*``
    sizing the figure drivers read at call time; ``warm_renders`` is
    how many warm re-renders one repetition times, so that the warm
    figure is a sum long enough to time.
    """

    name = ""
    env: dict[str, str] = {}
    warm_renders = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def segments(self) -> list:
        """Zero-argument calls, each returning ``{op: output}``."""
        raise NotImplementedError

    def render(self) -> dict:
        """Run every segment; ``{op: output}`` of the whole iteration."""
        out = {}
        for segment in self.segments():
            out.update(segment())
        return out


class AppBcast(Workload):
    """barnes on ATAC+ at 16x16, scale 0.6, through the user path."""

    name = "app-bcast"
    env = {"REPRO_MESH_WIDTH": "16", "REPRO_SCALE": "0.6"}
    warm_renders = 40

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.experiments.runspec import RunSpec

        self.spec = RunSpec(app="barnes", network="atac+", mesh_width=16,
                            scale=0.6, seed=seed, sanitize=False,
                            telemetry=False)

    def segments(self) -> list:
        return [self._run_and_price]

    def _run_and_price(self) -> dict:
        from repro.energy.accounting import EnergyModel
        from repro.experiments.runner import Runner
        from repro.tech.scenarios import ALL_SCENARIOS

        [result] = Runner(jobs=1, progress=False).run([self.spec])
        model = EnergyModel(self.spec.config())
        out = {op_id(self.spec): spec_output(result)}
        for scenario in ALL_SCENARIOS:
            out[f"energy:{scenario.name}"] = _energy_output(
                model.evaluate(result, scenario)
            )
        return out


class NetLoad(Workload):
    """Figure 3's grid on the ATAC+ network alone at 16x16.

    One segment per routing scheme: eight load points each.
    """

    name = "netload"
    env = {"REPRO_MESH_WIDTH": "16", "REPRO_SCALE": "0.6"}
    warm_renders = 120

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.experiments import fig03
        from repro.experiments.runspec import LoadPointSpec
        from repro.network.topology import MeshTopology

        topology = MeshTopology(width=16, cluster_width=4)
        self.schemes = [
            [LoadPointSpec(routing=routing, load=load, mesh_width=16,
                           broadcast_fraction=0.001, seed=seed)
             for load in fig03.DEFAULT_LOADS]
            for routing, _ in fig03.scheme_ids(topology)
        ]

    def segments(self) -> list:
        return [functools.partial(self._run_points, specs)
                for specs in self.schemes]

    @staticmethod
    def _run_points(specs) -> dict:
        from repro.experiments.runner import Runner

        points = Runner(jobs=1, progress=False).run(specs)
        return {op_id(spec): spec_output(point)
                for spec, point in zip(specs, points)}


#: Figure drivers rendered by ``figures``: (op name, module, function).
FIGURE_DRIVERS = (
    ("fig4", "fig04_05_06", "run_fig4"),
    ("fig5", "fig04_05_06", "run_fig5"),
    ("fig6", "fig04_05_06", "run_fig6"),
    ("fig7", "fig07_08_09", "run_fig7"),
    ("fig8", "fig07_08_09", "run_fig8"),
    ("fig9", "fig07_08_09", "run_fig9"),
    ("fig11", "fig10_11", "run_fig11"),
    ("fig12", "fig12_13", "run_fig12"),
    ("fig13", "fig12_13", "run_fig13"),
    ("fig14", "fig14_15_16", "run_fig14"),
    ("fig15", "fig14_15_16", "run_fig15"),
    ("fig16", "fig14_15_16", "run_fig16"),
    ("fig17", "fig17_table5", "run_fig17"),
    ("table5", "fig17_table5", "run_table5"),
)


class Figures(Workload):
    """Every RunSpec figure driver plus the ``repro sweep`` grid at 8x8.

    One segment per driver, and one for the sweep.  The drivers build
    their own specs with the program's default seed; the benchmark
    passes its seed in by binding ``seed`` on the ``spec_for`` each
    driver module calls, for the duration of the driver call.
    """

    name = "figures"
    env = {"REPRO_MESH_WIDTH": "8", "REPRO_SCALE": "0.1"}
    warm_renders = 20

    def segments(self) -> list:
        return [functools.partial(self._driver, *entry)
                for entry in FIGURE_DRIVERS] + [self._sweep]

    def _seeded_spec_for(self):
        from repro.experiments import common

        return functools.partial(common.spec_for, seed=self.seed)

    def _driver(self, op: str, module: str, func: str) -> dict:
        import importlib

        mod = importlib.import_module(f"repro.experiments.{module}")
        saved = mod.spec_for
        mod.spec_for = self._seeded_spec_for()
        try:
            rows = getattr(mod, func)(mesh_width=8, scale=0.1, jobs=1)
        finally:
            mod.spec_for = saved
        return {f"render:{op}": rows}

    def _sweep(self) -> dict:
        """The ``repro sweep`` default grid, rendered as the CLI does."""
        from repro.energy.accounting import EnergyModel
        from repro.experiments.runner import Runner
        from repro.network.registry import experiment_axis
        from repro.workloads.splash import APP_ORDER

        spec_for = self._seeded_spec_for()
        specs = [spec_for(app, network=net, mesh_width=8, scale=0.1)
                 for app in APP_ORDER for net in experiment_axis("sweep")]
        results = Runner(jobs=1, progress=False).run(specs)
        models = {s.network: EnergyModel(s.config()) for s in specs}
        return {"render:sweep": [
            {**r.summary(),
             "chip_energy_j": models[s.network].evaluate(r).chip_energy_j}
            for s, r in zip(specs, results)
        ]}


WORKLOADS = {w.name: w for w in (AppBcast, NetLoad, Figures)}
