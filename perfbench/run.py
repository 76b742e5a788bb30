"""End-to-end benchmark of the repro temporal-join library.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload adhoc-auto --seed 1 --seconds 20 --trace 0

Workloads and metrics are named in ``BENCHMARK.json``; their settings
live in ``perfbench/spec.json``. The run generates its inputs from
``--seed``, measures for ``--seconds`` (then finishes the current round
and any samples the tail percentile still needs), checks every output
and prints, as its last line, one JSON object::

    {"correct": true, "attempted": 120, "failed": 0,
     "metrics": {"setup_s": {"value": 0.04, "unit": "s"}, ...}}

``--trace 0`` reports the end-to-end metrics, measured untraced, their
times scaled to the reference host speed of ``perfbench/hostspeed.py``.
``--trace 1`` reports the per-layer metrics and writes the run's spans
as JSON lines to ``perfbench/traces/<workload>-seed<seed>.jsonl``. The
exit code is 0 only when every request succeeded and every output
matched its reference.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Environment knobs that would change how the program plans queries.
PROGRAM_ENV = (
    "REPRO_PLAN_CACHE",
    "REPRO_PLANNER_BUDGET",
    "REPRO_PLAN_SEARCH",
    "REPRO_VERIFY_PLANS",
)


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(outcome, declared, trace: bool) -> dict:
    """The final JSON object: every declared metric of this mode, with unit."""
    values = outcome.per_layer if trace else outcome.end_to_end
    unknown = set(values) - set(declared)
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    finite = True
    for name, unit in declared.items():
        value = float(values.get(name, 0.0))
        if not math.isfinite(value):
            finite = False
            value = None
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": finite and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def stop_helper_processes() -> None:
    """Stop and reap every process the run started, before it reports.

    The spawn-based pools of ``repro.parallel`` join their workers, but
    the first pool also launches multiprocessing's resource tracker,
    which would otherwise outlive this process as an unreaped orphan.
    Collect garbage first, so no semaphore finalizer restarts the
    tracker after it has been stopped.
    """
    import gc
    import multiprocessing
    from multiprocessing import resource_tracker

    gc.collect()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not bench_file.is_file():
        print(
            f"perfbench: run from a source checkout; {SRC / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    bench = load_json(bench_file)
    spec = load_json(HERE / "spec.json")
    args = parse_args(argv, [w["name"] for w in bench["workloads"]])

    for name in PROGRAM_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    import loads  # imports repro from SRC

    run = loads.Run(
        spec["workloads"][args.workload], args.seed, args.seconds, bool(args.trace)
    )
    try:
        outcome = loads.WORKLOADS[args.workload](run)
    finally:
        stop_helper_processes()

    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench[section]}
    line = result_line(outcome, declared, bool(args.trace))
    if args.trace:
        traces = HERE / "traces"
        traces.mkdir(exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}.jsonl"
        run.spans.write_jsonl(path)
        outcome.notes.append(f"spans: {path.relative_to(ROOT)} ({len(run.spans.spans)})")
    for note in outcome.notes:
        print(f"# {args.workload}: {note}")
    for name, metric in line["metrics"].items():
        print(f"# {name} = {metric['value']} {metric['unit']}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
