"""Exactly-once merge: concatenate shard outputs, aggregate telemetry.

Because the ownership rule guarantees each join result is emitted by
exactly one shard, the merge is a plain concatenation in shard order,
per task query — no hashing, no deduplication, no interval coalescing;
single-query runs and prepared batches share it. The only other work
here is folding per-shard :class:`~repro.obs.ExecutionStats` into
the caller's stats object and adding the parallel-layer counters
documented in ``DESIGN.md``:

* ``parallel.shards`` / ``parallel.workers`` — effective shard count and
  the worker processes used;
* ``parallel.replicated`` — extra tuple copies created by boundary
  replication (total assigned minus input size);
* ``parallel.shard_input`` / ``parallel.shard_results`` — per-shard size
  distributions (``.count`` / ``.total`` / ``.max``);
* ``parallel.skew_pct_peak`` — slowest shard's wall time as an integer
  percentage of the mean shard wall time (100 = perfectly balanced;
  ``_peak`` suffix so re-merging keeps the max);
* timers ``phase.parallel.shard00…`` and ``phase.parallel.workers`` —
  per-shard and summed worker wall-clock.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.query import JoinQuery
from ..core.result import JoinResultSet
from ..obs import ExecutionStats
from .worker import ShardOutcome


def merge_outcomes(
    queries: Sequence[JoinQuery],
    outcomes: Sequence[ShardOutcome],
    stats: Optional[ExecutionStats] = None,
    workers: int = 1,
    replicated: int = 0,
) -> List[JoinResultSet]:
    """Reassemble one global :class:`JoinResultSet` per task query.

    ``outcomes`` may arrive in any order (process pools preserve order,
    but nothing here depends on it); rows are concatenated in shard
    order so repeated runs produce identical row sequences.
    """
    ordered = sorted(outcomes, key=lambda o: o.shard)
    results = [JoinResultSet(query.attrs) for query in queries]
    for outcome in ordered:
        for position, result in enumerate(results):
            result.extend(outcome.rows[position])

    if stats is not None:
        for outcome in ordered:
            if outcome.stats is not None:
                stats.merge(outcome.stats)
        stats.incr("parallel.shards", len(ordered))
        stats.incr("parallel.workers", workers)
        stats.incr("parallel.replicated", replicated)
        times = []
        for outcome in ordered:
            stats.observe("parallel.shard_input", outcome.input_size)
            stats.observe(
                "parallel.shard_results", sum(len(rows) for rows in outcome.rows)
            )
            stats.add_time(
                f"phase.parallel.shard{outcome.shard:02d}", outcome.seconds
            )
            times.append(outcome.seconds)
        stats.add_time("phase.parallel.workers", sum(times))
        mean = sum(times) / len(times) if times else 0.0
        skew = round(100 * max(times) / mean) if mean > 0 else 100
        stats.peak("parallel.skew_pct_peak", skew)
    return results
