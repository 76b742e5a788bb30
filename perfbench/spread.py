"""Run the benchmark over several seeds and report its run-to-run spread.

For every workload and end-to-end metric this prints the median of the
runs and the spread, (Q3 - Q1) / median with the quartiles of Python's
``statistics.quantiles(values, n=4)``, next to the metric's bound from
``BENCHMARK.json``. A spread should stay below a third of its bound.
With ``--write`` it also runs one traced run per workload (seed
:data:`TRACE_SEED`) and records everything in ``perfbench/baseline.json``
(workloads not run keep their recorded figures)::

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --write

Runs go one at a time, each in its own process, from the checkout root,
for ``run_seconds`` of ``BENCHMARK.json``. The seeds are interleaved
across workloads (seed 1 of every workload, then seed 2, ...), so each
workload's runs spread over the whole session rather than one stretch
of it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Seed of the traced run that ``--write`` records.
TRACE_SEED = 1


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed={seed} trace={trace} exited {proc.returncode}:\n"
            f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": q2,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / q2 if q2 else float("inf"),
        "values": values,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--write", action="store_true",
                        help="also run traced and write perfbench/baseline.json")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("quartiles need at least two seeds")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = args.workloads.split(",")

    out = HERE / "baseline.json"
    report = {"end_to_end": {}, "per_layer": {}, "run_wall_s": {}}
    if args.write and out.is_file():
        # Workloads not re-run keep their recorded figures.
        report = json.loads(out.read_text(encoding="utf-8"))
    worst = 0.0
    runs_of = {workload: [] for workload in workloads}
    for seed in seeds:
        for workload in workloads:
            runs_of[workload].append(run_once(workload, seed, seconds, 0))
            print(f"  ran {workload} seed {seed}", flush=True)
    for workload in workloads:
        runs = runs_of[workload]
        walls = [r["wall_s"] for r in runs]
        report["run_wall_s"][workload] = summarize(walls)
        print(f"{workload}: run wall {min(walls):.1f}-{max(walls):.1f}s")
        rows = {}
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            rows[name] = stats
            flag = "" if stats["spread"] < bound / 3 else "  <-- above bound/3"
            if name != "setup_s":
                worst = max(worst, stats["spread"] / bound)
            print(
                f"  {name:<18} median {stats['median']:.6g}  "
                f"spread {stats['spread']:.3f} (bound {bound}){flag}  "
                + " ".join(f"{v:.4g}" for v in stats["values"])
            )
        report["end_to_end"][workload] = rows
        if args.write:
            traced = run_once(workload, TRACE_SEED, seconds, 1)
            report["per_layer"][workload] = {
                name: metric["value"] for name, metric in traced["metrics"].items()
            }
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    if args.write:
        report.setdefault("settings", {}).update({
            "seeds": seeds,
            "trace_seed": TRACE_SEED,
            "run_seconds": seconds,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        })
        out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
