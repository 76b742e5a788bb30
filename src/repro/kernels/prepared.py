"""Prepared databases: pay the columnar ingest once, sweep many times.

The serving story in ROADMAP.md is "one ingest path, N standing
queries". A cold kernel-path call (stock ``temporal_join(...,
algorithm="timefirst")``) re-interns values, re-ranks endpoints and
re-sorts the event stream every time;
:func:`prepare` hoists all three into a reusable, immutable, picklable
:class:`PreparedDatabase` artifact that any number of queries then sweep
over:

* ``temporal_join(query, database, prepared=artifact)`` validates the
  artifact against ``database`` and skips ``build_columns`` entirely;
* :func:`run_batch` evaluates a whole query fleet against one artifact,
  after the same validation preamble as ``temporal_join``
  (``registry._check_call``), running the queries the artifact cannot
  serve through ``temporal_join``'s runner under their resolved names —
  distinct hypergraphs are swept once each (queries differing only in
  output attribute order share one sweep and get projections of its
  rows), τ-shrunk views and per-query relation restrictions are derived
  from the base columns without re-sorting (``kernel.sort_calls`` stays
  at the single ingest sort for a τ=0 batch), and a plan cache keyed by
  :func:`repro.core.planner.plan_signature` + algorithm lets repeated
  templates skip the Figure-7 planner;
* with ``workers >= 2`` the batch ships each worker *one* shard column
  subset and reuses it for every query in the batch, instead of
  re-subsetting per query (the same shard tasks, fan-out and merge as a
  sharded single query, :func:`repro.parallel.executor.sweep_sharded`).

Invalidation is the caller's job: the artifact is a snapshot. Passing a
database whose relations no longer match (names, attribute tuples, row
counts, rows) raises :class:`~repro.core.errors.QueryError`; mutating a
relation in place behind the artifact's back is undetectable and
unsupported. Queries that require the footnote-2 r-hierarchical
*instance* reduction fall back to the cold kernel path — the reduction
rewrites the data per query, which is exactly what a shared artifact
cannot amortize; ``run_batch`` records that as the
``kernel.fallback_reason`` note.

Telemetry: ``prepared.*`` counters (cache hits/misses for plans, τ-views
and restrictions, reuse and shared-result counts, cold fallbacks) plus
``phase.prepared.*`` timers, including ``phase.prepared.saved`` — the
estimated ingest time each reuse avoided, pro-rated by the fraction of
prepared rows the query touched.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import QueryError
from ..core.interval import Number
from ..core.planner import Plan, hypergraph_signature, plan, plan_signature
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from ..obs import ExecutionStats
from .columns import KernelColumns, build_columns, shrink_columns
from .engine import kernel_timefirst_join, needs_reduction, runs_on_columns

Database = Mapping[str, TemporalRelation]


class PreparedDatabase:
    """Immutable prepared form of one database: columns built once.

    Holds the base :class:`~repro.kernels.columns.KernelColumns` (raw,
    un-shrunk endpoints) plus three caches that fill lazily and only
    ever grow:

    * τ-views — ``shrink_columns`` output per distinct ``tau`` (each
      costs one re-rank + re-sort, then is reused);
    * restrictions — per ``(tau, relation subset)`` column slices,
      derived from the view's sorted stream without re-sorting;
    * plans — :class:`~repro.core.planner.Plan` per
      :func:`~repro.core.planner.plan_signature`.

    The artifact is picklable (caches included) and safe to share
    across any number of queries; nothing in it is ever mutated after
    construction except the append-only caches.
    """

    def __init__(
        self,
        database: Database,
        columns: KernelColumns,
        build_seconds: float = 0.0,
        plan_cache=None,
    ) -> None:
        self.database = database
        self.columns = columns
        self.build_seconds = build_seconds
        self._views: Dict[Number, KernelColumns] = {}
        self._restrictions: Dict[Tuple, KernelColumns] = {}
        self._plans: Dict[Tuple, Plan] = {}
        #: Optional persistent :class:`repro.core.plancache.PlanCache`
        #: (or directory path) consulted on in-memory plan-cache misses.
        self.plan_cache = plan_cache

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PreparedDatabase(relations={list(self.columns.relations)}, "
            f"rows={self.columns.n_rows})"
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate_against(self, database: Database) -> None:
        """Check the artifact still describes ``database`` exactly.

        Identity is the fast path (same mapping, or same relation
        objects); otherwise relations must match by name set, attribute
        tuple, row count and — the full O(N) check, only reached for
        same-shaped but distinct objects — row-for-row content. Any
        mismatch raises :class:`QueryError` naming the stale relation.
        """
        if database is self.database:
            return
        mine = self.database
        if set(database) != set(mine):
            raise QueryError(
                "prepared database does not match: relations "
                f"{sorted(mine)} were prepared, got {sorted(database)}"
            )
        for name, prepared_rel in mine.items():
            rel = database[name]
            if rel is prepared_rel:
                continue
            if tuple(rel.attrs) != tuple(prepared_rel.attrs):
                raise QueryError(
                    f"prepared relation {name!r} has attributes "
                    f"{prepared_rel.attrs}, database has {rel.attrs}"
                )
            if len(rel) != len(prepared_rel) or list(rel) != list(prepared_rel):
                raise QueryError(
                    f"prepared columns are stale: relation {name!r} changed "
                    "since prepare(); re-prepare the database"
                )

    # ------------------------------------------------------------------
    # Cached derivations
    # ------------------------------------------------------------------
    def view(
        self, tau: Number, stats: Optional[ExecutionStats] = None
    ) -> KernelColumns:
        """The τ/2-shrunk columns for ``tau`` (base columns for τ=0)."""
        if tau == 0:
            return self.columns
        cached = self._views.get(tau)
        if cached is not None:
            if stats is not None:
                stats.incr("prepared.view_cache_hits")
            return cached
        if stats is None:
            cached = shrink_columns(self.columns, tau)
        else:
            stats.incr("prepared.view_cache_misses")
            with stats.timer("phase.prepared.view"):
                cached = shrink_columns(self.columns, tau, stats=stats)
        self._views[tau] = cached
        return cached

    def columns_for(
        self,
        query: JoinQuery,
        tau: Number = 0,
        stats: Optional[ExecutionStats] = None,
    ) -> KernelColumns:
        """Columns for ``query`` at ``tau``: view + relation restriction."""
        view_cols = self.view(tau, stats=stats)
        keep = set(query.edge_names)
        if keep == set(view_cols.relations):
            return view_cols
        key = (tau, tuple(sorted(keep)))
        cached = self._restrictions.get(key)
        if cached is not None:
            if stats is not None:
                stats.incr("prepared.restrict_cache_hits")
            return cached
        if stats is None:
            cached = view_cols.restrict(keep)
        else:
            stats.incr("prepared.restrict_cache_misses")
            with stats.timer("phase.prepared.restrict"):
                cached = view_cols.restrict(keep)
        self._restrictions[key] = cached
        return cached

    def cached_plan(
        self, query: JoinQuery, stats: Optional[ExecutionStats] = None
    ) -> Plan:
        """Figure-7 plan for ``query``, cached by shape signature.

        In-memory misses fall through to the planner with this
        artifact's persistent :attr:`plan_cache` (when configured), so a
        template fleet pays the decomposition search at most once per
        shape *across* processes, not just within one.
        """
        key = plan_signature(query)
        cached = self._plans.get(key)
        if cached is not None:
            if stats is not None:
                stats.incr("prepared.plan_cache_hits")
            return cached
        if stats is not None:
            stats.incr("prepared.plan_cache_misses")
        cached = plan(query, cache=self.plan_cache, stats=stats)
        self._plans[key] = cached
        return cached

    def record_reuse(
        self, columns: KernelColumns, stats: Optional[ExecutionStats]
    ) -> None:
        """Count one reuse and the ingest time it saved (pro-rated)."""
        if stats is None:
            return
        stats.incr("prepared.reuse")
        total = self.columns.n_rows
        if self.build_seconds and total:
            stats.add_time(
                "phase.prepared.saved",
                self.build_seconds * (columns.n_rows / total),
            )


def prepare(
    database: Database,
    stats: Optional[ExecutionStats] = None,
    plan_cache=None,
) -> PreparedDatabase:
    """Build the reusable columnar artifact for ``database`` — once.

    Interns values, rank-compresses endpoints and sorts the event-code
    stream exactly once (``kernel.sort_calls`` +1); every subsequent
    ``temporal_join(..., prepared=...)`` or :func:`run_batch` call over
    the artifact skips all three. ``plan_cache`` (a
    :class:`repro.core.plancache.PlanCache` or directory path) makes the
    artifact's plan cache persistent across processes.
    """
    start = time.perf_counter()
    columns = build_columns(database, stats=stats)
    return PreparedDatabase(
        database,
        columns,
        build_seconds=time.perf_counter() - start,
        plan_cache=plan_cache,
    )


# ----------------------------------------------------------------------
# Batch execution
# ----------------------------------------------------------------------

class _Evaluation:
    """One distinct (hypergraph, algorithm) sweep shared by ≥1 queries."""

    __slots__ = ("query", "name", "indices", "kernel", "result")

    def __init__(self, query: JoinQuery, name: str) -> None:
        self.query = query          # canonical query (first seen)
        self.name = name            # resolved algorithm name
        self.indices: List[int] = []  # positions in the caller's list
        self.kernel = False
        self.result: Optional[JoinResultSet] = None


def run_batch(
    queries: Sequence[JoinQuery],
    prepared: PreparedDatabase,
    tau: Number = 0,
    algorithm: str = "auto",
    stats: Optional[ExecutionStats] = None,
    workers: Optional[int] = None,
    parallel_mode: str = "process",
    **kwargs,
) -> List[JoinResultSet]:
    """Evaluate a fleet of queries against one prepared database.

    Returns one :class:`JoinResultSet` per input query, in order, each
    equal (up to row order) to ``temporal_join(q, prepared.database,
    tau=tau, algorithm=algorithm)``. The batch is where amortization
    compounds:

    * preparation (intern / rank / event sort) is inherited from the
      artifact — a τ=0 batch performs **zero** additional sorts;
    * queries sharing a hypergraph share one sweep: duplicates receive
      the same rows (``prepared.shared_results``), attribute-order
      variants a projection of them;
    * with ``workers >= 2`` all kernel-path sweeps in the batch run over
      one set of shard column subsets, shipped to the pool once.

    Queries the kernel cannot serve from the artifact — algorithms that
    run on object rows, or r-hierarchical queries needing the per-query
    instance reduction — fall back to a cold run of their resolved
    algorithm on the relations they touch, through the same runner as
    ``temporal_join`` (``prepared.fallback_queries``). Arguments are
    checked by the preamble ``temporal_join`` uses: a bad ``queries``,
    ``prepared``, ``tau``, ``workers`` or ``parallel_mode`` raises
    :class:`QueryError` before anything runs, and so does any algorithm
    keyword argument, which a batch does not take.
    """
    from ..algorithms.registry import (
        _check_call,
        _check_prepared,
        _resolve,
        _run,
    )

    _check_prepared(prepared)
    _check_call(queries, prepared.database, tau, workers, parallel_mode, prepared)
    if kwargs:
        raise QueryError(
            f"run_batch takes no algorithm keyword arguments, got {sorted(kwargs)}"
        )

    # ------------------------------------------------------------------
    # Resolve + dedup: one _Evaluation per distinct (hypergraph, algo).
    # ------------------------------------------------------------------
    evaluations: Dict[Tuple, _Evaluation] = {}
    order: List[_Evaluation] = []
    for index, query in enumerate(queries):
        query.validate(prepared.database)
        name, _, _ = _resolve(
            query, algorithm, {}, stats=stats, prepared=prepared
        )
        key = (hypergraph_signature(query), name)
        evaluation = evaluations.get(key)
        if evaluation is None:
            evaluation = _Evaluation(query, name)
            evaluation.kernel = runs_on_columns(name)
            if evaluation.kernel and needs_reduction(query):
                evaluation.kernel = False
                if stats is not None:
                    stats.note(
                        "kernel.fallback_reason",
                        "r-hierarchical instance reduction is per-query; "
                        "prepared columns cannot be shared, running cold",
                    )
            evaluations[key] = evaluation
            order.append(evaluation)
        evaluation.indices.append(index)
    if stats is not None:
        stats.incr("prepared.batch_queries", len(queries))
        stats.incr("prepared.batch_evaluations", len(order))

    # ------------------------------------------------------------------
    # Execute each distinct evaluation once.
    # ------------------------------------------------------------------
    kernel_evals = [e for e in order if e.kernel]
    if workers is not None and workers > 1 and kernel_evals:
        from ..parallel.executor import sweep_sharded
        from ..parallel.partition import partition_timeline

        view = prepared.view(tau, stats=stats)
        prepared.record_reuse(view, stats)
        run_queries = [evaluation.query for evaluation in kernel_evals]
        shared = sweep_sharded(
            run_queries,
            view,
            partition_timeline(prepared.database, workers),
            tau,
            parallel_mode,
            stats,
        )
        for evaluation, result in zip(kernel_evals, shared):
            evaluation.result = result
    else:
        for evaluation in kernel_evals:
            evaluation.result = kernel_timefirst_join(
                evaluation.query, prepared.database, tau=tau, stats=stats,
                prepared=prepared,
            )
    for evaluation in order:
        if evaluation.kernel:
            continue
        sub_db = {
            name: prepared.database[name]
            for name in evaluation.query.edge_names
        }
        _, _, evaluation.result = _run(
            evaluation.query, sub_db, tau, evaluation.name, stats, workers,
            parallel_mode, prepared=None, predicate="overlaps", kwargs={},
        )
        if stats is not None:
            stats.incr("prepared.fallback_queries", len(evaluation.indices))

    # ------------------------------------------------------------------
    # Distribute: shared rows, projected into each requested attr order.
    # ------------------------------------------------------------------
    results: List[Optional[JoinResultSet]] = [None] * len(queries)
    for evaluation in order:
        shared = evaluation.result
        for position, index in enumerate(evaluation.indices):
            query = queries[index]
            # Distribution operates on de-interned *result* rows, after
            # every sweep finished — not per-event object rows in a
            # kernel hot loop, which is what the rule polices.
            if tuple(query.attrs) == tuple(shared.attrs):
                results[index] = (
                    shared
                    if position == 0
                    else JoinResultSet(query.attrs, shared.rows)  # repro-lint: disable=kernel-no-object-rows
                )
            else:
                at = [shared.attrs.index(a) for a in query.attrs]
                results[index] = JoinResultSet(
                    query.attrs,
                    (
                        (tuple(values[p] for p in at), interval)
                        for values, interval in shared.rows  # repro-lint: disable=kernel-no-object-rows
                    ),
                )
            if position and stats is not None:
                stats.incr("prepared.shared_results")
    return results  # type: ignore[return-value]
