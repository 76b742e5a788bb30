"""The parallel execution engine: shard, fan out, merge exactly once.

:func:`parallel_temporal_join` runs *any* registered algorithm across
``workers`` time shards:

1. :func:`~repro.parallel.partition.partition_timeline` places
   endpoint-balanced cuts;
2. :func:`~repro.parallel.partition.shard_databases` replicates each
   tuple into every shard its interval overlaps;
3. each shard evaluates the unmodified serial algorithm, or the kernel
   pipeline on the shard's column subset
   (:func:`~repro.parallel.worker.run_shard`), and keeps only the
   results it owns under the exactly-once rule;
4. :func:`~repro.parallel.merge.merge_outcomes` concatenates.

Execution modes
---------------
``"process"`` (default) uses a ``multiprocessing`` pool with the
``spawn`` start method — safe under every interpreter configuration, at
the cost of one interpreter start per worker; each shard task is pickled
exactly once. ``"inline"`` runs the identical shard tasks sequentially
in the calling process: same partitioning, same ownership filter, same
merge, no processes — the debugging and testing mode. ``workers=1``
always runs inline (a single shard needs no pool).
"""

from __future__ import annotations

import multiprocessing
from typing import List, Mapping, Optional, Sequence, Union

from ..algorithms.registry import (
    PARALLEL_MODES,
    _check_parallel,
    _check_tau,
    _ensure_loaded,
    _resolve,
)
from ..core.interval import Number
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from ..kernels import query_columns, runs_on_columns, shard_row_ids
from ..obs import ExecutionStats
from .merge import merge_outcomes
from .partition import (
    TimePartition,
    partition_timeline,
    replication_factor,
    shard_databases,
)
from .worker import BatchShardTask, ShardTask, run_shard

#: Execution modes accepted by :func:`parallel_temporal_join`.
MODES = PARALLEL_MODES


def parallel_temporal_join(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number = 0,
    algorithm: str = "auto",
    workers: int = 2,
    mode: str = "process",
    cuts: Optional[Sequence[Number]] = None,
    stats: Optional[ExecutionStats] = None,
    prepared=None,
    **kwargs,
) -> JoinResultSet:
    """Evaluate a τ-durable temporal join across ``workers`` time shards.

    Parameters mirror :func:`repro.algorithms.registry.temporal_join`
    plus the parallel knobs:

    workers:
        Requested shard/worker count. The effective shard count may be
        lower when the endpoint distribution does not admit that many
        distinct cuts; ``stats`` reports it as ``parallel.shards``.
    mode:
        ``"process"`` (spawn-based pool) or ``"inline"`` (sequential
        in-process execution of the same shard tasks).
    cuts:
        Explicit interior cut points overriding the endpoint-balanced
        partitioner — for experiments and boundary tests.
    prepared:
        Optional :class:`~repro.kernels.prepared.PreparedDatabase`
        matching ``database``. On the kernel path shard columns are
        sliced from the prepared τ-view instead of re-interning; the
        caller (``temporal_join``) has already validated the artifact.

    When the resolved algorithm runs on columns
    (:func:`repro.kernels.engine.runs_on_columns`) the parent interns
    the (shrunk, reduced) instance once and ships each worker a
    one-query :class:`~repro.parallel.worker.BatchShardTask` of
    pre-sorted interned columns instead of object rows.

    Returns the same :class:`JoinResultSet` (up to row order) as the
    serial ``temporal_join`` with the same arguments; the merge path
    performs no deduplication, relying on the ownership rule.
    """
    _ensure_loaded()
    _check_tau(tau)
    _check_parallel(workers, mode)
    query.validate(database)
    algorithm, _, kwargs = _resolve(
        query, algorithm, kwargs, stats=stats, prepared=prepared
    )

    if cuts is not None:
        partition = TimePartition(tuple(cuts))
    else:
        partition = partition_timeline(database, workers)

    if runs_on_columns(algorithm, kwargs):
        run_query, columns = query_columns(
            query, database, tau, stats=stats, prepared=prepared
        )
        return sweep_sharded(
            [run_query], columns, partition, tau, workers, mode, stats
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
    return run_sharded([query], tasks, workers, mode, stats, replicated)[0]


def sweep_sharded(
    queries: Sequence[JoinQuery],
    columns,
    partition: TimePartition,
    tau: Number,
    workers: int,
    mode: str,
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
    return run_sharded(queries, tasks, workers, mode, stats, replicated)


def run_sharded(
    queries: Sequence[JoinQuery],
    tasks: Sequence[Union[ShardTask, BatchShardTask]],
    workers: int,
    mode: str,
    stats: Optional[ExecutionStats] = None,
    replicated: int = 0,
) -> List[JoinResultSet]:
    """Fan shard tasks out (spawn pool or inline) and merge exactly once.

    ``spawn`` starts each worker from a fresh interpreter, so
    :func:`run_shard` must stay importable as
    ``repro.parallel.worker.run_shard`` — the test suite's process-mode
    smoke test guards that. Worker exceptions re-raise here unchanged.
    """
    n_procs = min(workers, len(tasks))
    if mode == "process" and n_procs > 1:
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
