"""Algorithm registry and the dispatching ``temporal_join`` entry point.

Every evaluation strategy from the paper is registered under the name the
experiments section uses; ``temporal_join(..., algorithm="auto")`` runs
the Figure 7 planner and dispatches to its pick. When the planner's pick
is structurally inapplicable to the given instance (checked *up front*,
never by catching mid-execution errors), dispatch falls back to the
universally applicable HYBRID with algorithm-specific keyword arguments
stripped.

One private runner, :func:`_run`, is the only call path into the
algorithms: validate (:func:`_check_call`), route a non-``overlaps``
predicate, resolve (:func:`_resolve`), then run serially or across time
shards. :func:`temporal_join` returns its result;
:func:`explain_analyze` — the observability entry point — plans once
for the explanation and times one runner call with that plan, returning
the planner's static ``explain()`` alongside the measured counters (the
paper's theory, Figure 4 exponents, next to what actually happened);
:func:`repro.kernels.prepared.run_batch` shares the preamble and runs
its fallback evaluations through the runner.
"""

from __future__ import annotations

import inspect
import math
import numbers
import time
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..core.errors import QueryError
from ..core.interval import Number
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from ..obs import ExecutionStats

Algorithm = Callable[..., JoinResultSet]

_REGISTRY: Dict[str, Algorithm] = {}


def register(name: str) -> Callable[[Algorithm], Algorithm]:
    """Decorator registering an algorithm under ``name``."""

    def deco(fn: Algorithm) -> Algorithm:
        _REGISTRY[name] = fn
        return fn

    return deco


def available_algorithms() -> list:
    """Registered algorithm names (sorted)."""
    _ensure_loaded()
    return sorted(_REGISTRY)


_DESCRIPTIONS = {
    "timefirst": (
        "TIMEFIRST sweep (Alg. 1): attribute-tree state on hierarchical "
        "queries (O(N log N + K), Thm. 6), GHD state otherwise "
        "(O(N^(fhtw+1) + K), Thm. 9). Applicable to every query."
    ),
    "timefirst-cm": (
        "TIMEFIRST with the comparison-model §3.2 structure (BST + t+ "
        "heaps). (r-)hierarchical queries with ordered domains only."
    ),
    "hybrid": (
        "HYBRID (Alg. 5): GHD bag materialization + one sweep "
        "(O(N^min(fhtw+1, hhtw) + K), Thm. 12). Applicable everywhere; "
        "the choice for cyclic queries."
    ),
    "hybrid-interval": (
        "HYBRID-INTERVAL (Alg. 6): guarded core join + interval-join "
        "residuals (O(N^1.5 + K) on line joins). Requires a guarded "
        "partition (lines, stars, TPC-style chains)."
    ),
    "baseline": (
        "BASELINE: pairwise binary temporal joins (lazy endpoint sweep "
        "by default) with a value-statistics join-order search. "
        "Applicable everywhere; vulnerable to intermediate blow-up."
    ),
    "joinfirst": (
        "JOINFIRST: worst-case-optimal non-temporal join, then interval "
        "filtering. Fast iff the non-temporal result is small."
    ),
    "naive": "Brute-force backtracking oracle (testing only).",
}


def describe_algorithms() -> str:
    """Human-readable summary of every registered algorithm."""
    _ensure_loaded()
    lines = []
    for name in sorted(_REGISTRY):
        description = _DESCRIPTIONS.get(name, "(no description)")
        lines.append(f"{name:>16}: {description}")
    return "\n".join(lines)


def get_algorithm(name: str) -> Algorithm:
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise QueryError(
            f"unknown algorithm {name!r}; available: {available_algorithms()}"
        ) from None


_loaded = False


def _ensure_loaded() -> None:
    global _loaded
    if _loaded:
        return
    from .baseline import baseline_join
    from .hierarchical_cm import ComparisonHierarchicalState
    from .hybrid import hybrid_join
    from .hybrid_interval import hybrid_interval_join
    from .joinfirst import joinfirst_join
    from .naive import naive_join
    from .timefirst import timefirst_join

    _REGISTRY.setdefault("timefirst", timefirst_join)

    def timefirst_cm(query, database, tau=0, stats=None):
        """TIMEFIRST with the comparison-model §3.2 structure.

        Only applicable to (r-)hierarchical queries with totally ordered
        attribute domains; registered for the data-structure ablation.
        ``timefirst_join`` applies the footnote-2 instance reduction to
        merely r-hierarchical queries before building the state, like
        the hashed variant.
        """
        return timefirst_join(
            query, database, tau=tau,
            state_factory=lambda q, db: ComparisonHierarchicalState(q, stats=stats),
            stats=stats,
        )

    _REGISTRY.setdefault("timefirst-cm", timefirst_cm)
    _REGISTRY.setdefault("hybrid", hybrid_join)
    _REGISTRY.setdefault("hybrid-interval", hybrid_interval_join)
    _REGISTRY.setdefault("baseline", baseline_join)
    _REGISTRY.setdefault("joinfirst", joinfirst_join)
    _REGISTRY.setdefault("naive", naive_join)
    _loaded = True


def _check_tau(tau: Number) -> None:
    """Reject non-finite durability thresholds at the API boundary.

    ``tau = inf`` would shrink every finite interval to nothing while
    mapping infinite endpoints onto their fixed points — a join that can
    only ever return the always-valid tuples, which no caller has ever
    meant. ``tau = nan`` silently drops everything. Both now fail fast
    with an explanation instead of producing a surprising empty result.
    """
    try:
        finite = math.isfinite(tau)
    except TypeError:
        raise QueryError(
            f"tau must be a real number, got {type(tau).__name__}: {tau!r}"
        ) from None
    if not finite:
        raise QueryError(
            f"tau must be finite, got {tau!r}; durability over an infinite "
            "window is not a meaningful temporal join"
        )
    if tau < 0:
        raise QueryError(f"tau must be non-negative, got {tau!r}")


#: Execution modes of the sharded engine (``parallel_mode=``); defined
#: here so serial calls can validate it without importing
#: :mod:`repro.parallel`.
PARALLEL_MODES = ("process", "inline")


def _check_parallel(workers: Optional[int], parallel_mode: str) -> None:
    """Reject bad ``workers`` / ``parallel_mode`` values at the API boundary.

    ``workers`` is ``None`` (serial) or an integer >= 1 — never a bool,
    float or string; ``parallel_mode`` is one of :data:`PARALLEL_MODES`
    whether or not ``workers`` shards.
    """
    if workers is not None:
        if isinstance(workers, bool) or not isinstance(workers, numbers.Integral):
            raise QueryError(
                "workers must be an integer >= 1 or None, got "
                f"{type(workers).__name__}: {workers!r}"
            )
        if workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers!r}")
    if parallel_mode not in PARALLEL_MODES:
        raise QueryError(
            f"unknown parallel mode {parallel_mode!r}; expected {PARALLEL_MODES}"
        )


def _check_prepared(prepared) -> None:
    """Reject a ``prepared=`` value that is not a :func:`prepare` artifact."""
    from ..kernels.prepared import PreparedDatabase

    if not isinstance(prepared, PreparedDatabase):
        raise QueryError(
            "prepared must be a PreparedDatabase from repro.prepare(), got "
            f"{type(prepared).__name__}: {prepared!r:.80}"
        )


def _check_call(
    queries: Sequence[JoinQuery],
    database: Mapping[str, TemporalRelation],
    tau: Number,
    workers: Optional[int],
    parallel_mode: str,
    prepared,
    algorithm: str = "auto",
    predicate: str = "overlaps",
) -> None:
    """The validation preamble of every entry point.

    ``temporal_join`` and ``explain_analyze`` pass their one query,
    ``run_batch`` its fleet. A wrong argument type, a bad ``tau``,
    ``workers``, ``parallel_mode`` or ``predicate``, a predicate call
    the binary lazy sweep cannot serve, and an artifact that is not one
    or does not match ``database`` all raise :class:`QueryError` here,
    before anything plans or runs.
    """
    _ensure_loaded()
    if not isinstance(queries, Sequence):
        raise QueryError(
            "queries must be a sequence of JoinQuery, got "
            f"{type(queries).__name__}: {queries!r:.80}"
        )
    for query in queries:
        if not isinstance(query, JoinQuery):
            raise QueryError(
                f"query must be a JoinQuery, got {type(query).__name__}: "
                f"{query!r:.80}"
            )
    if not isinstance(database, Mapping):
        raise QueryError(
            "database must map relation names to TemporalRelation, got "
            f"{type(database).__name__}"
        )
    _check_tau(tau)
    _check_parallel(workers, parallel_mode)
    from .allen import parse_predicate

    if parse_predicate(predicate) != ("overlaps",):
        # Allen predicates are defined on a *pair* of intervals; the
        # multiway machinery (attribute trees, GHDs, shard-ownership
        # merge) is all built on intersection semantics.
        for query in queries:
            names = query.edge_names
            if len(names) != 2:
                raise QueryError(
                    f"predicate {predicate!r} requires a binary query "
                    f"(exactly two edges); got {len(names)} edges "
                    f"{list(names)}. Only the default 'overlaps' predicate "
                    "supports multiway queries."
                )
        if workers is not None and workers > 1:
            raise QueryError(
                f"predicate {predicate!r} does not support workers={workers}: "
                "the sharded merge's ownership rule assumes overlap semantics"
            )
        if algorithm not in ("auto", "baseline"):
            raise QueryError(
                f"predicate {predicate!r} runs the lazy-sweep binary engine; "
                f"algorithm must be 'auto' or 'baseline', got {algorithm!r}"
            )
    if prepared is not None:
        _check_prepared(prepared)
        prepared.validate_against(database)


def _applicable(name: str, query: JoinQuery) -> bool:
    """Up-front structural applicability check for an algorithm pick.

    This is the *entire* fallback condition for ``algorithm="auto"``:
    a plan is abandoned only when this predicate says the algorithm
    cannot run on ``query`` at all, never because some mid-execution
    error happened to be a :class:`PlanError`.
    """
    if name == "hybrid-interval":
        from ..nontemporal.ghd import find_guarded_partition

        return find_guarded_partition(query.hypergraph) is not None
    if name == "timefirst-cm":
        return query.is_hierarchical or query.is_r_hierarchical
    return True


#: Keyword arguments consumed by the dispatch layer itself, never by an
#: algorithm function. :func:`strip_unsupported_kwargs` always keeps them,
#: so benchmark code can hand one common kwargs dict (``workers=`` …) to
#: algorithms with differing signatures. ``prepared`` likewise: only the
#: dispatch layer knows how to swap prepared columns in. ``predicate``
#: too: a non-``"overlaps"`` predicate reroutes dispatch to the binary
#: lazy-sweep path before any algorithm is called.
EXECUTOR_KWARGS = frozenset({"workers", "parallel_mode", "prepared", "predicate"})


def _keyword_params(fn: Algorithm) -> Optional[frozenset]:
    """Names ``fn`` accepts by keyword, or ``None`` if it takes ``**kwargs``."""
    params = inspect.signature(fn).parameters.values()
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params):
        return None
    return frozenset(
        p.name
        for p in params
        if p.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        )
    )


def _check_kwargs(name: str, fn: Algorithm, kwargs: Mapping) -> None:
    """Reject keyword arguments algorithm ``name`` does not accept."""
    if not kwargs:
        return
    accepted = _keyword_params(fn)
    if accepted is None:
        return
    unknown = sorted(set(kwargs) - accepted)
    if unknown:
        raise QueryError(
            f"algorithm {name!r} does not accept keyword argument(s) "
            f"{unknown}; it accepts {sorted(accepted - {'query', 'database'})}"
        )


def strip_unsupported_kwargs(fn: Algorithm, kwargs: Dict) -> Dict:
    """Drop keyword arguments ``fn`` does not accept.

    Dispatch-layer kwargs (:data:`EXECUTOR_KWARGS`) survive regardless of
    ``fn``'s signature — they are consumed before ``fn`` is called. Used
    on the auto-dispatch fallback path (kwargs meant for the planner's
    original pick, e.g. ``residual_strategy=`` for HYBRID-INTERVAL, must
    not crash the substitute algorithm) and by
    :func:`repro.bench.harness.measure` to pass one shared kwargs dict
    across algorithms.
    """
    accepted = _keyword_params(fn)
    if accepted is None:
        return dict(kwargs)
    accepted |= EXECUTOR_KWARGS
    return {k: v for k, v in kwargs.items() if k in accepted}


def _plan(query: JoinQuery, stats=None, prepared=None):
    """The Figure-7 plan for ``query``, from ``prepared``'s cache if given."""
    if prepared is not None:
        return prepared.cached_plan(query, stats=stats)
    from ..core.planner import plan

    return plan(query, stats=stats)


def _resolve(
    query: JoinQuery,
    algorithm: str,
    kwargs: Dict,
    choice=None,
    stats=None,
    prepared=None,
) -> Tuple[str, Algorithm, Dict]:
    """Resolve ``algorithm`` to ``(name, fn, kwargs)``, kwargs checked.

    A named algorithm is looked up in the registry. ``"auto"`` takes the
    Figure-7 plan ``choice`` — planning here (through ``prepared``'s
    plan cache when given, ``planner.*`` counters into ``stats``) only
    when the caller does not already hold it — and validates its pick up
    front: when the pick is structurally inapplicable to this instance
    the universally applicable HYBRID is substituted, with
    algorithm-specific kwargs stripped. Either way a keyword the
    algorithm does not accept raises :class:`QueryError` before anything
    runs; errors raised *during* execution, including :class:`PlanError`
    from nested machinery, propagate untouched.
    """
    if algorithm != "auto":
        fn = get_algorithm(algorithm)
        _check_kwargs(algorithm, fn, kwargs)
        return algorithm, fn, kwargs
    if choice is None:
        choice = _plan(query, stats=stats, prepared=prepared)
    name = choice.algorithm
    fn = _REGISTRY[name]
    _check_kwargs(name, fn, kwargs)
    if _applicable(name, query):
        return name, fn, kwargs
    fallback = _REGISTRY["hybrid"]
    return "hybrid", fallback, strip_unsupported_kwargs(fallback, kwargs)


def _binary_predicate_join(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number,
    predicate: str,
    stats: Optional[ExecutionStats],
    prepared,
) -> JoinResultSet:
    """Dispatch a non-``overlaps`` predicate to the lazy-sweep binary path.

    :func:`_check_call` has already walled the call off to what the
    binary sweep serves: exactly two edges, no parallel workers, and
    only the ``auto``/``baseline`` algorithm names (both of which mean
    "the binary join" on a two-edge query anyway).

    τ filters the *emitted* pair interval — the intersection, or the gap
    for ``before`` — by duration, consistent with the shrink/expand
    durability semantics of the overlaps path (where the emitted
    interval is always the intersection).
    """
    query.validate(database)
    from ..kernels.allen import kernel_predicate_join

    out = kernel_predicate_join(
        query, database, predicate, stats=stats, prepared=prepared
    )
    if tau:
        out = out.filter_durable(tau)
    if stats is not None:
        stats.incr("results", len(out))
    return out


def temporal_join(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number = 0,
    algorithm: str = "auto",
    stats: Optional[ExecutionStats] = None,
    workers: Optional[int] = None,
    parallel_mode: str = "process",
    prepared=None,
    predicate: str = "overlaps",
    **kwargs,
) -> JoinResultSet:
    """Evaluate the τ-durable temporal join of ``query`` on ``database``.

    Parameters
    ----------
    query:
        The join query (hypergraph + output attribute order).
    database:
        Mapping from relation name to :class:`TemporalRelation`.
    tau:
        Durability threshold; 0 gives the plain temporal join. Must be a
        finite non-negative number (:class:`QueryError` otherwise).
    algorithm:
        ``"auto"`` (Figure 7 planner), or one of
        :func:`available_algorithms` — ``timefirst``, ``hybrid``,
        ``hybrid-interval``, ``baseline``, ``joinfirst``, ``naive``.
        Stock ``timefirst`` without algorithm kwargs sweeps on the
        columnar kernel substrate (:mod:`repro.kernels` — interned
        values, rank-space endpoints, one pre-sorted event array); every
        other call runs on object rows. Results are identical either way
        up to row order.
    stats:
        Optional :class:`~repro.obs.ExecutionStats` that the selected
        algorithm fills with execution counters and phase timers. When
        ``None`` (the default) no telemetry code runs.
    workers:
        ``None`` or ``1`` (default) runs the algorithm serially.
        ``workers >= 2`` routes through the time-domain sharded engine of
        :mod:`repro.parallel`: the same algorithm runs on ``workers``
        endpoint-balanced time shards and the results are merged exactly
        once — identical output up to row order. Anything but ``None``
        or an integer >= 1 raises :class:`QueryError`.
    parallel_mode:
        ``"process"`` (spawn-based pool, the default) or ``"inline"``
        (same sharded execution inside the calling process, for
        debugging). Only used when ``workers >= 2``.
    prepared:
        Optional :class:`~repro.kernels.prepared.PreparedDatabase` from
        :func:`repro.kernels.prepared.prepare`. Must match ``database``
        (validated up front, :class:`QueryError` on any drift); on the
        kernel path the call then skips interning, ranking and the
        event sort entirely, sweeping the artifact's cached columns.
        Ignored by the object path. See also
        :func:`repro.kernels.prepared.run_batch` for whole-fleet
        amortization.
    predicate:
        The interval predicate joining pairs must satisfy: the default
        ``"overlaps"`` (nonempty intersection — the paper's implicit
        join predicate, supported by every algorithm/worker
        combination), any other extended Allen atom (``before``,
        ``meets``, ``starts``, ``started-by``, ``finishes``,
        ``finished-by``, ``during``, ``contains``, ``equals``) or an
        ``-or-`` union of atoms (``"overlaps-or-meets"``). Non-overlaps
        predicates require a **binary** (two-edge) query and run the
        rank-space lazy sweep directly (serial only); result intervals
        are the pair intersection, or the gap for ``before``, and τ
        filters that interval's duration. See
        :mod:`repro.algorithms.allen`.
    kwargs:
        Forwarded to the selected algorithm (e.g. ``order=`` for
        ``baseline``, ``mode=`` for ``hybrid``). A keyword the algorithm
        does not accept raises :class:`QueryError`.

    Returns
    -------
    JoinResultSet
        Result tuples in ``query.attrs`` order with their valid intervals
        (the original, un-shrunk intervals even when ``tau > 0``).
    """
    return _run(
        query, database, tau, algorithm, stats, workers, parallel_mode,
        prepared, predicate, kwargs,
    )[2]


#: The name the runner reports for the binary Allen-predicate route.
_LAZY_SWEEP = "lazy-sweep"


def _run(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number,
    algorithm: str,
    stats: Optional[ExecutionStats],
    workers: Optional[int],
    parallel_mode: str,
    prepared,
    predicate: str,
    kwargs: Dict,
    choice=None,
) -> Tuple[str, str, JoinResultSet]:
    """Validate → resolve → run: the one call path into the algorithms.

    Runs the :func:`_check_call` preamble, routes a non-``overlaps``
    predicate to the binary lazy sweep, resolves ``algorithm`` (with the
    caller's plan ``choice`` if it holds one, else planning at most
    once) and runs the resolved algorithm serially or, for
    ``workers >= 2``, across endpoint-balanced time shards. Returns
    ``(name, engine, result)``: the algorithm that ran, the substrate it
    ran on (``"kernel"`` or ``"object"``) and its result.
    ``temporal_join``, ``explain_analyze`` and ``run_batch``'s fallback
    evaluations all come through here, so what ``explain_analyze`` times
    and reports is what ``temporal_join`` runs.
    """
    _check_call(
        (query,), database, tau, workers, parallel_mode, prepared,
        algorithm, predicate,
    )
    from .allen import parse_predicate

    if parse_predicate(predicate) != ("overlaps",):
        result = _binary_predicate_join(
            query, database, tau, predicate, stats, prepared
        )
        return _LAZY_SWEEP, "kernel", result
    name, fn, kwargs = _resolve(
        query, algorithm, kwargs, choice=choice, stats=stats, prepared=prepared
    )
    from ..kernels.engine import kernel_timefirst_join, runs_on_columns

    engine = "kernel" if runs_on_columns(name, kwargs) else "object"
    if workers is not None and workers > 1:
        from ..parallel.executor import sharded_join
        from ..parallel.partition import partition_timeline

        query.validate(database)
        result = sharded_join(
            query, database, tau, name, kwargs,
            partition_timeline(database, workers), parallel_mode,
            stats=stats, prepared=prepared,
        )
    elif engine == "kernel":
        result = kernel_timefirst_join(
            query, database, tau=tau, stats=stats, prepared=prepared
        )
    else:
        if stats is not None:
            kwargs = dict(kwargs, stats=stats)
        result = fn(query, database, tau=tau, **kwargs)
    return name, engine, result


@dataclass
class ExplainAnalyze:
    """Planner explanation + measured execution profile of one join run."""

    algorithm: str
    plan_explanation: str
    stats: ExecutionStats
    result: JoinResultSet
    seconds: float
    tau: Number
    input_size: int
    #: The substrate that ran: ``"kernel"`` (columns) or ``"object"``.
    engine: str = "object"

    def render(self) -> str:
        """Aligned, ``EXPLAIN ANALYZE``-style report."""
        head = [
            f"algorithm:  {self.algorithm}",
            f"engine:     {self.engine}",
            f"tau:        {self.tau}",
            f"input rows: {self.input_size}",
            f"results:    {len(self.result)}",
            f"wall time:  {self.seconds * 1e3:.3f} ms",
        ]
        body = self.stats.render()
        sections = [
            "-- plan " + "-" * 32,
            self.plan_explanation,
            "-- execution " + "-" * 27,
            "\n".join(head),
        ]
        if body:
            sections += ["-- counters " + "-" * 28, body]
        return "\n".join(sections)


def explain_analyze(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number = 0,
    algorithm: str = "auto",
    stats: Optional[ExecutionStats] = None,
    workers: Optional[int] = None,
    parallel_mode: str = "process",
    prepared=None,
    predicate: str = "overlaps",
    **kwargs,
) -> ExplainAnalyze:
    """Run the join with telemetry attached and report plan + counters.

    The observability counterpart of :func:`temporal_join`: it plans
    once for the explanation, then times one call of the same runner
    ``temporal_join`` uses, handing it that plan — same validation,
    predicate route, fallback, kwargs, substrate and sharding, so the
    report describes the code path ``temporal_join`` runs. The returned
    :class:`ExplainAnalyze` pairs the planner's static ``explain()``
    with what actually happened — events processed, peak active-set
    size, intermediate cardinalities, phase timers, wall time, and the
    algorithm and substrate that ran.

    ``stats`` may be supplied to accumulate counters across several runs
    (e.g. a parameter sweep); by default a fresh object is used. With
    ``workers >= 2`` the report includes the ``parallel.*`` counters and
    per-shard timers; with ``prepared=`` the ``prepared.*`` rows (cache
    hits, reuse, time saved). The counters equal those of
    ``temporal_join(..., stats=)`` with the same arguments, except the
    timing-derived ``parallel.skew_pct_peak`` and, when ``algorithm``
    is named rather than ``"auto"``, the ``planner.*`` /
    ``prepared.plan_cache_*`` rows of the explanation's plan.
    """
    # Before planning, so bad inputs (a bad predicate call included)
    # fail as QueryError rather than after a plan search; the timed
    # runner call repeats the preamble, as every temporal_join call
    # pays it.
    _check_call(
        (query,), database, tau, workers, parallel_mode, prepared,
        algorithm, predicate,
    )
    if stats is None:
        # Created before the planner runs so the ``planner.*`` search
        # counters land in the report alongside the execution counters.
        stats = ExecutionStats()
    choice = _plan(query, stats=stats, prepared=prepared)
    start = time.perf_counter()
    name, engine, result = _run(
        query, database, tau, algorithm, stats, workers, parallel_mode,
        prepared, predicate, kwargs, choice=choice,
    )
    seconds = time.perf_counter() - start
    explanation = choice.explain()
    if name == _LAZY_SWEEP:
        explanation += (
            f"\n(binary Allen-predicate join, predicate={predicate!r}: one "
            "lazy endpoint sweep per shared-attribute key group; the "
            "multiway plan above does not apply)"
        )
    elif name != choice.algorithm and algorithm != "auto":
        explanation += (
            f"\n(algorithm forced to {name!r} by caller; the planner "
            f"would have picked {choice.algorithm!r})"
        )
    elif name != choice.algorithm:
        explanation += (
            f"\n(auto fallback: planner picked {choice.algorithm!r}, "
            f"inapplicable to this instance; ran {name!r})"
        )
    return ExplainAnalyze(
        algorithm=name,
        plan_explanation=explanation,
        stats=stats,
        result=result,
        seconds=seconds,
        tau=tau,
        input_size=sum(len(rel) for rel in database.values()),
        engine=engine,
    )
