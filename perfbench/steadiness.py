"""Measure how steady the benchmark is and write ``steadiness.json``.

Runs the benchmark :data:`RUNS` times on every workload of
``BENCHMARK.json`` in each of two sets, interleaved (set A run, set B
run, ...), each run with its own seed and ``run_seconds`` long, and
records per end-to-end metric the median and quartiles of each set, raw
(before host-speed correction) and corrected, with the spread
``(q3 - q1) / median`` and the shift of set B's median from set A's.
Run from the repository root (about 40 minutes)::

    python3 perfbench/steadiness.py
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "steadiness.json"
#: runs per workload in each set
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw_line = next(line for line in proc.stderr.splitlines()
                    if line.startswith("perfbench-raw "))
    corrected = {k: v["value"] for k, v in result["metrics"].items()}
    return corrected, json.loads(raw_line.split(" ", 1)[1])


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else None, "n": len(values)}


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    record = {"runs_per_set": RUNS, "seconds": seconds,
              "seeds": {"A": list(range(1, RUNS + 1)),
                        "B": list(range(101, 101 + RUNS))},
              "workloads": {}}
    for workload in [w["name"] for w in bench["workloads"]]:
        sets = {"A": ([], []), "B": ([], [])}
        for i in range(RUNS):
            for name in ("A", "B"):
                seed = record["seeds"][name][i]
                corrected, raw = one_run(workload, seed, seconds)
                sets[name][0].append(corrected)
                sets[name][1].append(raw)
                print(f"{workload} set {name} seed {seed}: {corrected}",
                      file=sys.stderr)
        rows = {}
        for metric in corrected:
            row = {"bound": bounds.get(metric)}
            for name, (corr, raw) in sets.items():
                row[f"{name}_corrected"] = summary([r[metric] for r in corr])
                if metric in raw[0]:
                    row[f"{name}_raw"] = summary([r[metric] for r in raw])
            a, b = row["A_corrected"]["median"], row["B_corrected"]["median"]
            row["median_shift"] = (b - a) / a
            rows[metric] = row
        record["workloads"][workload] = rows
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    for workload, rows in record["workloads"].items():
        for metric, row in rows.items():
            print(f"{workload:10s} {metric:18s} bound {row['bound']}: "
                  f"spread A {row['A_corrected']['spread']:.4f} "
                  f"B {row['B_corrected']['spread']:.4f} "
                  f"shift {row['median_shift']:+.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
