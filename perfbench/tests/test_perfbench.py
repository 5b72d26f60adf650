"""Self-tests of the benchmark itself (not of the simulator).

Run from the repository root::

    python3 -m pytest perfbench/tests

The subprocess tests run the real workloads at their fixed sizes, with
the shortest run length, so this file takes a few minutes.
"""

from __future__ import annotations

import ast
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOADS = ("app-bcast", "netload", "figures")


def bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT,
              seconds: int = 1) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Declarations
# ----------------------------------------------------------------------

def test_names_are_valid_and_unique():
    bench = bench_json()
    names = ([w["name"] for w in bench["workloads"]]
             + [m["name"] for m in bench["end_to_end"]]
             + [m["name"] for m in bench["per_layer"]])
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    assert tuple(w["name"] for w in bench["workloads"]) == WORKLOADS


def test_setup_s_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in bench_json()["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_reference_kernel_imports_nothing_from_repro():
    tree = ast.parse((BENCH_DIR / "refkernel.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        assert not any(m.split(".")[0] == "repro" for m in modules), modules
    code = ("import sys; sys.path.insert(0, 'perfbench'); import refkernel; "
            "refkernel.time_kernel(); "
            "print(any(m.split('.')[0] == 'repro' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def app_outputs():
    """Cold outputs of app-bcast on the default seed and on seed 7."""
    import run

    run.WORK_DIR.mkdir(exist_ok=True)
    cls = workloads.WORKLOADS["app-bcast"]
    run.isolate_environment(cls.env)
    run.import_program()
    out = {}
    for seed in (workloads.DEFAULT_SEED, 7):
        rep, _ = run.run_rep(cls(seed), seed, 1, run.HostSpeed())
        assert rep.failures == {} or seed != workloads.DEFAULT_SEED
        out[seed] = rep.outputs
    return out


def _run_op(outputs: dict) -> str:
    [op] = [op for op in outputs if op.startswith("run:")]
    return op


def test_default_seed_matches_pins_and_known_counts(app_outputs):
    outputs = app_outputs[workloads.DEFAULT_SEED]
    assert workloads.check("app-bcast", workloads.DEFAULT_SEED, outputs,
                           outputs) == {}
    run = outputs[_run_op(outputs)]
    assert run["completion_cycles"] == 35355
    assert run["total_instructions"] == 289614
    assert run["network_stats"]["packets_sent"] == 63043


def test_other_seed_passes_invariants_and_changes_digest(app_outputs):
    default, other = app_outputs[workloads.DEFAULT_SEED], app_outputs[7]
    assert workloads.check("app-bcast", 7, other, other) == {}
    assert workloads.digest(default[_run_op(default)]) != \
        workloads.digest(other[_run_op(other)])


def _perturbed(outputs: dict, edit) -> dict:
    copy = json.loads(json.dumps(outputs))
    edit(copy[_run_op(copy)])
    return copy


def test_perturbed_run_result_fails_the_check(app_outputs):
    seed = workloads.DEFAULT_SEED
    good = app_outputs[seed]
    op = _run_op(good)

    def one_more_cycle(run):
        run["completion_cycles"] += 1

    bad = _perturbed(good, one_more_cycle)
    assert op in workloads.check("app-bcast", seed, bad, bad)
    # the warm re-render must reproduce the cold result exactly
    assert op in workloads.check("app-bcast", seed, good, bad)

    def idle_core(run):
        run["total_instructions"] -= run["per_core_instructions"][0]
        run["per_core_instructions"][0] = 0

    other = _perturbed(app_outputs[7], idle_core)
    assert op.split("#")[0] in {o.split("#")[0]
                                for o in workloads.check("app-bcast", 7,
                                                         other, other)}


# ----------------------------------------------------------------------
# The command, end to end
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_is_emitted(workload, trace):
    proc = run_bench(workload, workloads.DEFAULT_SEED, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = bench_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), name
        if not trace:
            assert v["value"] > 0, name


def test_traced_call_counts_repeat_exactly():
    first, second = (last_json(run_bench("app-bcast", 3, trace=1))
                     for _ in range(2))
    exact = [name for name in first["metrics"]
             if name.endswith(".calls") or name == "total.calls_per_event"
             or metrics_unit(name) == "count"]
    assert exact
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name


def metrics_unit(name: str) -> str:
    return {m["name"]: m["unit"] for m in bench_json()["per_layer"]}[name]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("app-bcast", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
