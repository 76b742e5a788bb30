"""Speed-ratio regression gates: every gated A/B cell in one runner.

Each :class:`Cell` times two arms on one fixed, seeded workload — a
baseline strategy and the faster one the repository depends on — and
gates their speed *ratio* (baseline seconds / fast seconds). Absolute
seconds are machine noise; the ratio on the same machine and instance
is comparable across machines, which is what ``BENCH_gates.json``
records and the gate compares.

``check`` applies four rules per cell, stopping at the first that
fails: the two arms' outputs agree, the fast arm's count contracts
hold, the ratio is at or above the cell's floor, and the ratio is at
or above the committed reference ratio × (1 − ``TOLERANCE``).

Usage::

    python -m repro.bench.gates --out BENCH_gates.json
        Measure every cell and write the document (re-baselines).

    python -m repro.bench.gates --check --baseline BENCH_gates.json
        Gate mode: exit 1 if any cell fails a rule, 2 if the baseline
        cannot be read.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import tempfile
import time
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..algorithms.allen import ATOMS, lazy_sweep_join, pair_interval
from ..algorithms.interval_join import forward_scan_join
from ..algorithms.registry import temporal_join
from ..algorithms.timefirst import timefirst_join
from ..core.interval import Interval
from ..core.plancache import PlanCache
from ..core.planner import plan
from ..core.query import JoinQuery
from ..kernels.prepared import prepare, run_batch
from ..nontemporal.cover import _fractional_edge_cover_cached
from ..nontemporal.search import clear_search_memo
from ..obs import ExecutionStats
from ..workloads.synthetic import SyntheticConfig, generate
from .reporting import format_seconds

#: Allowed relative regression of a ratio below its committed reference.
TOLERANCE = 0.15


class Arms(NamedTuple):
    """One cell's workload, bound: the two timed arms and their checks."""

    baseline: Callable[[], Any]
    fast: Callable[[], Any]
    #: ``same(baseline_output, fast_output)``: do the arms agree?
    same: Callable[[Any, Any], bool]
    #: Untimed instrumented run of the fast arm, for count contracts.
    counters: Optional[Callable[[], ExecutionStats]] = None
    #: Run before every timed call (after ``gc.collect()``), untimed.
    reset: Callable[[], None] = lambda: None


class Cell(NamedTuple):
    """One gated cell: its workload, arms, contracts, floor and repeats."""

    name: str
    labels: Tuple[str, str]
    #: Builds the workload and yields its :class:`Arms`; cleans up after.
    setup: Callable[[], ContextManager[Arms]]
    #: ``counter -> exact value`` the fast arm's instrumented run must hit.
    contracts: Dict[str, int]
    floor: float
    repeat: int


# ----------------------------------------------------------------------
# Kernel vs object substrate (TIMEFIRST) on the synthetic line3 / star3
# families: the object-row timefirst_join against stock
# temporal_join(algorithm="timefirst"), which sweeps on columns. line3
# drives the generic GHD sweep state, star3 the X_u counter hierarchy of
# Theorem 9. N = 3 * (980 + 40) ≈ 3k tuples.
# ----------------------------------------------------------------------

KERNEL_CONFIG = SyntheticConfig(n_dangling=980, n_results=40)


def _kernel_setup(make_query: Callable[[], JoinQuery]):
    @contextlib.contextmanager
    def setup() -> Iterator[Arms]:
        query = make_query()
        database = generate(query, KERNEL_CONFIG)

        yield Arms(
            baseline=lambda: timefirst_join(query, database, tau=0.0),
            fast=lambda: temporal_join(
                query, database, tau=0.0, algorithm="timefirst"
            ),
            same=lambda a, b: a.normalized() == b.normalized(),
        )

    return setup


# ----------------------------------------------------------------------
# Cold fleet vs prepared batch: ten kernel-path temporal_join calls vs
# one prepare() + run_batch() over a 10-template fleet on one shared
# line5 schema (N ≈ 5 * (560 + 40) ≈ 3k tuples). window=150, below the
# generator's 300-tick stagger, keeps dangling mass temporally disjoint
# between relations, so sub-chain templates return only the backbone:
# the cell measures ingest amortization, not sweep asymptotics, and
# exploding results would swamp the prepare cost both arms pay. Both arms
# force TIMEFIRST, the kernel-path algorithm — the planner would route
# line chains to HYBRID-INTERVAL, turning this into an algorithm race.
# ----------------------------------------------------------------------

PREPARED_CONFIG = SyntheticConfig(n_dangling=560, n_results=40, window=150)


def _chain(first: int, last: int, reverse: bool = False) -> JoinQuery:
    """Sub-chain template R{first}..R{last} of the shared line5 schema."""
    edges = {f"R{k}": (f"x{k}", f"x{k + 1}") for k in range(first, last + 1)}
    query = JoinQuery(edges)
    if reverse:
        query = JoinQuery(edges, attr_order=tuple(reversed(query.attrs)))
    return query


def fleet_queries() -> List[JoinQuery]:
    """Four distinct hypergraphs with realistic duplication.

    The popular line3 template three times (once with a different output
    attribute order), a hot line2 template three times, and line4 / the
    full line5 twice each. ``run_batch`` sweeps each distinct hypergraph
    once and projects rows into duplicates — the amortization under test.
    """
    return [
        _chain(1, 3), _chain(1, 3), _chain(1, 3, reverse=True),
        _chain(2, 3), _chain(2, 3), _chain(2, 3),
        _chain(1, 4), _chain(1, 4),
        _chain(1, 5), _chain(1, 5),
    ]


@contextlib.contextmanager
def _prepared_setup() -> Iterator[Arms]:
    database = generate(JoinQuery.line(5), PREPARED_CONFIG)
    queries = fleet_queries()

    def cold():
        return [
            temporal_join(
                query, {name: database[name] for name in query.edge_names},
                tau=0.0, algorithm="timefirst",
            )
            for query in queries
        ]

    def batch(stats=None):
        artifact = prepare(database, stats=stats)
        return run_batch(
            queries, artifact, tau=0.0, algorithm="timefirst", stats=stats
        )

    def counters() -> ExecutionStats:
        stats = ExecutionStats()
        batch(stats)
        return stats

    yield Arms(
        baseline=cold,
        fast=batch,
        same=lambda a, b: [r.normalized() for r in a]
        == [r.normalized() for r in b],
        counters=counters,
    )


# ----------------------------------------------------------------------
# Lazy endpoint sweep (Piatov et al., arXiv:2008.12665) vs forward-scan
# on overlaps — both plane sweeps, so the ratio isolates the gapless
# active set and lazy pair construction — and vs the naive O(n*m)
# predicate scan on during, the only classic strategy for Allen atoms.
# ----------------------------------------------------------------------


def allen_workload(n: int, grid: bool) -> Tuple[list, list]:
    """Two sides of ``n`` random intervals, seeded by ``n``.

    Starts are uniform over a span of ``n`` ticks and lengths uniform
    over (0, 20), so pair density per tuple is constant across sizes.
    ``grid=True`` snaps endpoints to integers so that equality-shaped
    atoms fire; float endpoints almost never coincide.
    """
    rng = random.Random(n)
    sides = []
    for prefix in ("l", "r"):
        items = []
        for i in range(n):
            if grid:
                lo = float(rng.randrange(n))
                hi = lo + rng.randrange(21)
            else:
                lo = rng.uniform(0.0, float(n))
                hi = lo + rng.uniform(0.0, 20.0)
            items.append((f"{prefix}{i}", Interval(lo, hi)))
        sides.append(items)
    return sides[0], sides[1]


def naive_predicate_join(left, right, predicate: str) -> list:
    """O(n*m) oracle: test the atom on every pair."""
    holds = ATOMS[predicate].holds
    out = []
    for lpay, livl in left:
        llo = livl.lo
        lhi = livl.hi
        for rpay, rivl in right:
            if holds(llo, lhi, rivl.lo, rivl.hi):
                out.append(
                    (lpay, rpay,
                     Interval(*pair_interval(llo, lhi, rivl.lo, rivl.hi)))
                )
    return out


def _allen_setup(predicate: str, n: int):
    @contextlib.contextmanager
    def setup() -> Iterator[Arms]:
        naive = predicate != "overlaps"
        left, right = allen_workload(n, grid=naive)
        if naive:
            def baseline():
                return naive_predicate_join(left, right, predicate)
        else:
            def baseline():
                return forward_scan_join(left, right)
        yield Arms(
            baseline=baseline,
            fast=lambda: lazy_sweep_join(left, right, predicate=predicate),
            same=lambda a, b: sorted(a) == sorted(b),
        )

    return setup


# ----------------------------------------------------------------------
# Exact decomposition search vs warm persistent plan cache over the
# Table 1 fleet. Every per-process memo is dropped before each timed
# call, simulating a fresh interpreter; the warm arm re-loads the cache
# from disk each time. All shapes are distinct, so the ratio is pure
# cache-vs-search, not intra-fleet sharing.
# ----------------------------------------------------------------------

PLANNER_FLEET: Tuple[Tuple[str, Callable[[], JoinQuery]], ...] = (
    ("line2", lambda: JoinQuery.line(2)),
    ("line3", lambda: JoinQuery.line(3)),
    ("line4", lambda: JoinQuery.line(4)),
    ("star3", lambda: JoinQuery.star(3)),
    ("star4", lambda: JoinQuery.star(4)),
    ("triangle", JoinQuery.triangle),
    ("cycle4", lambda: JoinQuery.cycle(4)),
    ("cycle5", lambda: JoinQuery.cycle(5)),
    ("cycle6", lambda: JoinQuery.cycle(6)),
    ("bowtie", JoinQuery.bowtie),
    ("hier", JoinQuery.hier),
)


def _cold_process() -> None:
    """Drop every per-process planner memo."""
    clear_search_memo()
    _fractional_edge_cover_cached.cache_clear()


def _plan_fleet(cache: Optional[PlanCache], stats=None) -> list:
    return [plan(make(), cache=cache, stats=stats) for _, make in PLANNER_FLEET]


def _plan_key(plans) -> list:
    return [(p.fhtw, p.hhtw, p.exponent, p.algorithm) for p in plans]


@contextlib.contextmanager
def _planner_setup() -> Iterator[Arms]:
    with tempfile.TemporaryDirectory(prefix="repro-plan-bench-") as root:
        cache_dir = os.path.join(root, "plans")
        # Populate the persistent cache once, untimed; the plans it
        # stored are the reference both arms must reproduce.
        _cold_process()
        reference = _plan_key(_plan_fleet(PlanCache(cache_dir)))

        def counters() -> ExecutionStats:
            _cold_process()
            stats = ExecutionStats()
            _plan_fleet(PlanCache(cache_dir), stats=stats)
            return stats

        yield Arms(
            baseline=lambda: _plan_fleet(None),
            fast=lambda: _plan_fleet(PlanCache(cache_dir)),
            same=lambda a, b: _plan_key(a) == _plan_key(b) == reference,
            counters=counters,
            reset=_cold_process,
        )


#: Every gated cell, in run order.
CELLS: Tuple[Cell, ...] = (
    Cell("kernel/line3/3k", ("object", "kernel"),
         _kernel_setup(lambda: JoinQuery.line(3)), {}, 1.0, 3),
    Cell("kernel/star3/3k", ("object", "kernel"),
         _kernel_setup(lambda: JoinQuery.star(3)), {}, 1.0, 3),
    Cell("prepared/fleet/3k", ("cold", "batch"), _prepared_setup,
         {"kernel.sort_calls": 1}, 1.0, 3),
    Cell("allen/overlaps/10k", ("forward-scan", "lazy-sweep"),
         _allen_setup("overlaps", 10_000), {}, 1.0, 5),
    Cell("allen/during/1k", ("naive", "lazy-sweep"),
         _allen_setup("during", 1_000), {}, 1.0, 5),
    Cell("planner/table1", ("cold-search", "warm-cache"), _planner_setup,
         {"planner.search_nodes": 0,
          "planner.cache_hits": len(PLANNER_FLEET)}, 2.0, 3),
)


def best_of(fn: Callable[[], Any], repeat: int,
            reset: Callable[[], None]) -> Tuple[float, Any]:
    """Best-of-``repeat`` wall time of ``fn`` and its last output.

    Garbage left by earlier calls is collected before each call, so a
    collection pause triggered by *their* allocations cannot land inside
    this measurement.
    """
    best = float("inf")
    out = None
    for _ in range(repeat):
        gc.collect()
        reset()
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def measure(cell: Cell) -> dict:
    """Time both arms of ``cell`` and record agreement and counters."""
    with cell.setup() as arms:
        base_s, base_out = best_of(arms.baseline, cell.repeat, arms.reset)
        fast_s, fast_out = best_of(arms.fast, cell.repeat, arms.reset)
        agree = arms.same(base_out, fast_out)
        # Separate instrumented run, so telemetry never touches timings.
        stats = arms.counters() if arms.counters else ExecutionStats()
    return {
        "cell": cell.name,
        "baseline": cell.labels[0],
        "fast": cell.labels[1],
        "baseline_seconds": base_s,
        "fast_seconds": fast_s,
        "ratio": base_s / fast_s if fast_s > 0 else float("inf"),
        "agree": agree,
        "counts": {name: stats.get(name) for name in cell.contracts},
    }


def check(doc: dict, baseline: dict) -> List[str]:
    """The gate: one failure message per failing cell (empty = pass)."""
    references = {c["cell"]: c["ratio"] for c in baseline.get("cells", [])}
    cells = {cell.name: cell for cell in CELLS}
    failures: List[str] = []
    for row in doc["cells"]:
        name = row["cell"]
        cell = cells[name]
        ratio = row["ratio"]
        broken = [
            f"{counter} = {row['counts'].get(counter)}, contract is exactly {want}"
            for counter, want in cell.contracts.items()
            if row["counts"].get(counter) != want
        ]
        if not row["agree"]:
            failures.append(
                f"{name}: {row['baseline']} and {row['fast']} outputs differ"
            )
        elif broken:
            failures.append(f"{name}: {broken[0]}")
        elif ratio < cell.floor:
            failures.append(
                f"{name}: {row['fast']} speedup {ratio:.2f}x is below the "
                f"{cell.floor:.2f}x floor"
            )
        elif name not in references:
            failures.append(f"{name}: no reference ratio in the baseline")
        elif ratio < references[name] * (1.0 - TOLERANCE):
            ref = references[name]
            failures.append(
                f"{name}: speedup {ratio:.2f}x regressed below "
                f"{ref * (1.0 - TOLERANCE):.2f}x (reference {ref:.2f}x "
                f"- {TOLERANCE:.0%} tolerance)"
            )
    return failures


def render(rows: Sequence[dict]) -> str:
    """Compact ASCII table of measured cells."""
    header = (
        f"{'cell':>20} {'baseline':>22} {'fast':>20} {'ratio':>8} {'ok':>3}"
    )
    lines = ["Speed-ratio gates", header, "-" * len(header)]
    for r in rows:
        base = f"{r['baseline']} {format_seconds(r['baseline_seconds'])}"
        fast = f"{r['fast']} {format_seconds(r['fast_seconds'])}"
        lines.append(
            f"{r['cell']:>20} {base:>22} {fast:>20} {r['ratio']:>7.2f}x "
            f"{'ok' if r['agree'] else 'BAD':>3}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.gates",
        description="Speed-ratio regression gates (JSON output + gate)",
    )
    parser.add_argument("--out", default=None,
                        help="write the measured JSON document here")
    parser.add_argument("--check", action="store_true",
                        help="gate mode: compare against --baseline")
    parser.add_argument("--baseline", default="BENCH_gates.json",
                        help="committed reference ratios (gate mode)")
    args = parser.parse_args(argv)

    baseline = None
    if args.check:
        try:
            with open(args.baseline) as fh:
                baseline = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline {args.baseline}: {exc}")
            return 2

    rows = [measure(cell) for cell in CELLS]
    doc = {
        "benchmark": "gates",
        "timestamp": time.time(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "tolerance": TOLERANCE,
        "cells": rows,
    }
    print(render(rows))

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"\nwrote {args.out}")

    if not args.check:
        return 0 if all(r["agree"] for r in rows) else 1
    failures = check(doc, baseline)
    if failures:
        print("\nbenchmark gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nbenchmark gate passed (tolerance {TOLERANCE:.0%} vs "
          f"{args.baseline})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
