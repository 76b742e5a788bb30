"""The parallel execution engine: shard, fan out, merge exactly once.

:func:`sharded_join` runs an already resolved algorithm across the
windows of a :class:`~repro.parallel.partition.TimePartition`. It is
what ``temporal_join(..., workers=p, parallel_mode=...)`` runs after
validating and resolving the call (and cutting the timeline with
:func:`~repro.parallel.partition.partition_timeline`):

1. :func:`~repro.parallel.partition.shard_databases` replicates each
   tuple into every shard its interval overlaps;
2. each shard evaluates the unmodified serial algorithm, or the kernel
   pipeline on the shard's column subset
   (:func:`~repro.parallel.worker.run_shard`), and keeps only the
   results it owns under the exactly-once rule;
3. :func:`~repro.parallel.merge.merge_outcomes` concatenates.

Execution modes
---------------
``"process"`` uses a ``multiprocessing`` pool with the ``spawn`` start
method — safe under every interpreter configuration, at the cost of one
interpreter start per worker; each shard task is pickled exactly once.
``"inline"`` runs the identical shard tasks sequentially in the calling
process: same partitioning, same ownership filter, same merge, no
processes — the debugging and testing mode. A single shard always runs
inline (it needs no pool).
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, List, Mapping, Optional, Sequence, Union

from ..core.interval import Number
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from ..kernels import query_columns, runs_on_columns, shard_row_ids
from ..obs import ExecutionStats
from .merge import merge_outcomes
from .partition import TimePartition, replication_factor, shard_databases
from .worker import BatchShardTask, ShardTask, run_shard


def sharded_join(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number,
    algorithm: str,
    kwargs: Dict,
    partition: TimePartition,
    parallel_mode: str,
    stats: Optional[ExecutionStats] = None,
    prepared=None,
) -> JoinResultSet:
    """Run resolved ``algorithm`` over the time shards of ``partition``.

    The caller has validated the call and resolved ``algorithm`` to a
    registry name with checked ``kwargs``; one shard runs per window of
    ``partition`` (``stats`` reports the count as ``parallel.shards``).
    When the algorithm runs on columns
    (:func:`repro.kernels.engine.runs_on_columns`) the parent interns
    the (shrunk, reduced) instance once — or slices ``prepared``'s
    τ-view — and ships each worker a one-query
    :class:`~repro.parallel.worker.BatchShardTask` of pre-sorted
    interned columns instead of object rows.

    Returns the same :class:`JoinResultSet` (up to row order) as the
    serial run; the merge performs no deduplication, relying on the
    ownership rule.
    """
    if runs_on_columns(algorithm, kwargs):
        run_query, columns = query_columns(
            query, database, tau, stats=stats, prepared=prepared
        )
        return sweep_sharded(
            [run_query], columns, partition, tau, parallel_mode, stats
        )[0]
    shard_dbs = shard_databases(database, partition)
    _, replicated = replication_factor(database, shard_dbs)
    tasks = [
        ShardTask(
            shard=i,
            query=query,
            database=shard_db,
            tau=tau,
            algorithm=algorithm,
            cuts=partition.cuts,
            kwargs=dict(kwargs),
            collect_stats=stats is not None,
        )
        for i, shard_db in enumerate(shard_dbs)
    ]
    return run_sharded([query], tasks, parallel_mode, stats, replicated)[0]


def sweep_sharded(
    queries: Sequence[JoinQuery],
    columns,
    partition: TimePartition,
    tau: Number,
    parallel_mode: str,
    stats: Optional[ExecutionStats] = None,
) -> List[JoinResultSet]:
    """Sweep every run query over one sharded column set.

    Each shard receives the column subset of every row whose expanded
    (original) interval overlaps its window, re-ranked locally with its
    own pre-sorted event codes, together with *all* ``queries`` — so a
    prepared batch ships its shard payload once, not once per query.
    Assignment by expanded intervals is what makes ownership exact: a
    result's endpoint owner sees all of the result's constituent rows
    (their expanded intervals each contain the expanded result
    endpoint).
    """
    assignments = shard_row_ids(columns, partition.cuts, tau)
    replicated = sum(len(rids) for rids in assignments) - columns.n_rows
    tasks = [
        BatchShardTask(
            shard=i,
            queries=list(queries),
            tau=tau,
            cuts=partition.cuts,
            columns=columns.subset(rids),
            collect_stats=stats is not None,
        )
        for i, rids in enumerate(assignments)
    ]
    return run_sharded(queries, tasks, parallel_mode, stats, replicated)


def run_sharded(
    queries: Sequence[JoinQuery],
    tasks: Sequence[Union[ShardTask, BatchShardTask]],
    parallel_mode: str,
    stats: Optional[ExecutionStats] = None,
    replicated: int = 0,
) -> List[JoinResultSet]:
    """Fan shard tasks out (spawn pool or inline) and merge exactly once.

    ``"process"`` mode starts one worker per task. ``spawn`` starts
    each worker from a fresh interpreter, so :func:`run_shard` must stay
    importable as ``repro.parallel.worker.run_shard`` — the test suite's
    process-mode smoke test guards that. Worker exceptions re-raise here
    unchanged.
    """
    n_procs = len(tasks)
    if parallel_mode == "process" and n_procs > 1:
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(processes=n_procs) as pool:
            outcomes = pool.map(run_shard, tasks, chunksize=1)
    else:
        outcomes = [run_shard(task) for task in tasks]
    return merge_outcomes(
        queries,
        outcomes,
        stats=stats,
        workers=n_procs,
        replicated=replicated,
    )
