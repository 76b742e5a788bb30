"""The kernel TIMEFIRST pipeline: one interning pass, one flat sweep.

:func:`runs_on_columns` is the one substrate rule: the planner, serial
dispatch, the parallel executor and ``run_batch`` all ask it whether a
resolved algorithm runs on columns or on object rows. On columns every
caller runs the same two steps — :func:`query_columns` picks the
:class:`~repro.kernels.columns.KernelColumns` the sweep reads (a
prepared artifact's cached view, or a cold validate / τ/2-shrink /
r-hierarchical reduction / intern pass), and :func:`sweep_columns`
selects the state, sweeps the pre-sorted int event codes, de-interns in
one batch and τ/2-expands — serially in :func:`kernel_timefirst_join`,
per shard in :mod:`repro.parallel.worker`. Output equality with the
object path (normalized row sets, ``sweep.*`` / ``hier.*`` / ``ghd.*``
counters, ``phase.sweep`` timer) is the correctness contract, pinned by
the hypothesis equivalence suite.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

from ..algorithms.registry import get_algorithm
from ..algorithms.timefirst import timefirst_join
from ..core.durability import shrink_database
from ..core.interval import Number
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from ..obs import ExecutionStats
from .columns import KernelColumns, build_columns, deintern_results
from .generic import KernelGenericState
from .hierarchy import KernelHierarchicalState


def runs_on_columns(algorithm: str, kwargs: Optional[Mapping] = None) -> bool:
    """True iff ``algorithm`` called with ``kwargs`` sweeps on columns.

    That is exactly the stock ``timefirst`` registration called without
    algorithm kwargs: ``state_factory=`` and friends need object rows,
    and a replaced registry entry (a test double, a user override)
    always wins over the fast path, which accelerates the stock
    implementation only. Every other algorithm runs on object rows.
    """
    if algorithm != "timefirst" or kwargs:
        return False
    return get_algorithm(algorithm) is timefirst_join


def needs_reduction(query: JoinQuery) -> bool:
    """True iff TIMEFIRST on ``query`` rewrites the *instance* first.

    Merely-r-hierarchical queries go through the footnote-2 reduction,
    which drops rows per query — incompatible with sharing one prepared
    column set across a fleet, so such queries take the cold path.
    """
    return (not query.is_hierarchical) and query.is_r_hierarchical


def prepare_run(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number = 0,
    stats: Optional[ExecutionStats] = None,
) -> Tuple[JoinQuery, Mapping[str, TemporalRelation]]:
    """Validate, τ/2-shrink and (if r-hierarchical) reduce the instance.

    Returns the (query, database) pair the sweep actually runs on. Both
    substrates start here: the object path's ``timefirst_join`` (and
    ``timefirst-cm`` through it) and the cold kernel path, before
    interning.
    """
    from ..core.classification import reduce_instance

    query.validate(database)
    if stats is None:
        db = shrink_database(database, tau)
    else:
        with stats.timer("phase.shrink"):
            db = shrink_database(database, tau)
    if not needs_reduction(query):
        return query, db
    reduced_hg, reduced_db = reduce_instance(query.hypergraph, db)
    # Keep the original output attribute order: reduction never removes
    # attributes, only edges.
    run_query = JoinQuery(
        {n: reduced_hg.edge(n) for n in reduced_hg.edge_names},
        attr_order=query.attrs,
    )
    return run_query, reduced_db


def query_columns(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number = 0,
    stats: Optional[ExecutionStats] = None,
    prepared=None,
) -> Tuple[JoinQuery, KernelColumns]:
    """The run query and the columns its sweep reads.

    With a :class:`~repro.kernels.prepared.PreparedDatabase` (already
    validated against ``database`` by the caller) the artifact's cached
    τ-view restricted to the query's relations: no interning, ranking or
    event sort. Queries needing the per-query r-hierarchical instance
    reduction, and calls without an artifact, take the cold
    :func:`prepare_run` + :func:`~repro.kernels.columns.build_columns`
    pair.
    """
    if prepared is not None and not needs_reduction(query):
        query.validate(database)
        columns = prepared.columns_for(query, tau, stats=stats)
        prepared.record_reuse(columns, stats)
        return query, columns
    run_query, run_db = prepare_run(query, database, tau, stats=stats)
    return run_query, build_columns(run_db, stats=stats)


def kernel_sweep(
    run_query: JoinQuery,
    columns: KernelColumns,
    state,
    stats: Optional[ExecutionStats] = None,
) -> JoinResultSet:
    """Algorithm 1 over pre-sorted event codes (interned output rows)."""
    out = JoinResultSet(run_query.attrs)
    n = columns.n_rows
    if n == 0:
        if stats is not None:
            stats.incr("results", 0)
        return out
    codes = columns.event_codes
    insert_row = state.insert_row
    expire_row = state.expire_row
    if stats is None:
        for code in codes:
            if (code // n) & 1:
                expire_row(code % n, out)
            else:
                insert_row(code % n)
        return out
    active = peak = inserts = 0
    with stats.timer("phase.sweep"):
        for code in codes:
            if (code // n) & 1:
                expire_row(code % n, out)
                active -= 1
            else:
                inserts += 1
                active += 1
                if active > peak:
                    peak = active
                insert_row(code % n)
    stats.incr("sweep.events", len(codes))
    stats.incr("sweep.inserts", inserts)
    stats.incr("sweep.enumerate_calls", len(codes) - inserts)
    stats.peak("sweep.active_peak", peak)
    stats.incr("results", len(out))
    return out


def sweep_columns(
    run_query: JoinQuery,
    columns: KernelColumns,
    tau: Number = 0,
    stats: Optional[ExecutionStats] = None,
) -> JoinResultSet:
    """State selection → sweep → de-intern → τ/2-expand over ``columns``.

    The one kernel pipeline after the columns exist. The state follows
    the object path's choice: the attribute-tree structure (Theorem 6)
    on hierarchical run queries, the GHD state (Theorem 9) otherwise.
    """
    if run_query.is_hierarchical:
        state = KernelHierarchicalState(run_query, columns, stats=stats)
    else:
        state = KernelGenericState(run_query, columns, stats=stats)
    result = kernel_sweep(run_query, columns, state, stats=stats)
    result = deintern_results(columns.domains, result)
    return result.expand_intervals(tau / 2 if tau else 0)


def kernel_timefirst_join(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number = 0,
    stats: Optional[ExecutionStats] = None,
    prepared=None,
) -> JoinResultSet:
    """τ-durable TIMEFIRST on the columnar kernel substrate, serially.

    Drop-in equivalent of the object path's ``timefirst_join`` without
    ``state_factory``: same counters, same normalized results, at most
    one event sort per call (none when ``prepared`` serves the query).
    """
    run_query, columns = query_columns(
        query, database, tau, stats=stats, prepared=prepared
    )
    return sweep_columns(run_query, columns, tau, stats=stats)
