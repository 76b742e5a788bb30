"""`TemporalJoinService` — standing queries over one shared ingest path.

ROADMAP's serving story made concrete: *one ingest path, N standing
queries*. Every tuple enters through :meth:`~TemporalJoinService.append`,
which fans it out to every registered *evaluation* — one per distinct
``(hypergraph, τ)`` template, holding a live
:class:`~repro.algorithms.online.OnlineTemporalJoin` — and delivers
every result the arrival (or a declared watermark) finalizes to the
template's attached :class:`~repro.serve.query.StandingQuery` handles
immediately, projected into each handle's output attribute order.

* **runtime registration** — :meth:`~TemporalJoinService.register` /
  :meth:`~TemporalJoinService.deregister` add and remove standing queries
  while the stream runs. Identical query templates are deduplicated
  through the shape key the prepared-columns engine uses
  (:func:`~repro.core.planner.hypergraph_signature`): handles whose
  queries share a hypergraph and τ share one live operator, and
  attribute-order variants receive projections of its rows — the
  streaming analogue of :func:`repro.kernels.prepared.run_batch`'s sweep
  sharing.
* **τ-durability folded into the ingest** — reusing the offline τ/2
  reduction (§2 of the paper): a τ-template's operator receives arrivals
  shrunk by τ/2 (tuples whose interval vanishes never enter the state)
  and its emissions are expanded back on delivery. Because the shrink
  shifts every start by the same ``+τ/2``, the single arrival order
  serves every τ simultaneously, and a service watermark ``w``
  translates to ``w + τ/2`` on the shrunk timeline.
* **ordering, enforced once** — arrivals must be non-decreasing in
  interval start. ``strict=True`` (default) raises on violations;
  ``strict=False`` clamps the arrival to the service watermark and
  records ``serve.clamped`` plus the ``serve.clamp_reason`` note,
  mirroring the online operator's own degradation contract — never
  silent. Malformed input (unhashable values, a NaN or non-numeric
  watermark) is rejected before any state changes.
* **bulk ingest** — :meth:`~TemporalJoinService.ingest_database` replays
  a stored database through :meth:`~TemporalJoinService.append` in one
  endpoint-ordered pass (``serve.ingest_passes``).
* **SLO telemetry** — ``serve.*`` counters through the existing
  :mod:`repro.obs` layer: ingest volume and rate, emission event-time
  lag (finalizable point to delivery), active-set size, buffer depths,
  drops and clamps. :meth:`~TemporalJoinService.telemetry` folds the
  per-query stats into one report.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..algorithms.online import (
    OnlineTemporalJoin,
    arrivals_from_database,
    check_hashable,
    check_watermark,
)
from ..core.errors import QueryError
from ..core.interval import Interval, IntervalLike, Number
from ..core.planner import Plan, hypergraph_signature, plan
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import ResultRow
from ..obs import ExecutionStats
from .query import Backpressure, Emission, StandingQuery

Values = Tuple[object, ...]
Database = Mapping[str, TemporalRelation]


class _Evaluation:
    """One live operator shared by every handle of one (hypergraph, τ)."""

    __slots__ = ("query", "half", "op", "handles", "relations")

    def __init__(
        self,
        query: JoinQuery,
        tau: Number,
        stats: Optional[ExecutionStats] = None,
    ) -> None:
        self.query = query
        self.half = tau / 2 if tau else 0
        self.op = OnlineTemporalJoin(query, strict=True, stats=stats)
        self.handles: List[StandingQuery] = []
        self.relations = frozenset(query.edge_names)

    def projection(self, handle_query: JoinQuery) -> Optional[Tuple[int, ...]]:
        """Column permutation from the canonical attrs to the handle's."""
        if tuple(handle_query.attrs) == tuple(self.query.attrs):
            return None
        return tuple(self.query.attrs.index(a) for a in handle_query.attrs)


class TemporalJoinService:
    """Standing-query streaming service over one shared temporal ingest path.

    Parameters
    ----------
    strict:
        Ordering contract for the ingest path: raise on an arrival that
        starts before the watermark (default), or clamp it and count it.
    stats:
        Optional service-wide :class:`ExecutionStats`; a fresh one is
        created when omitted and exposed as :attr:`stats`.
    """

    def __init__(
        self,
        strict: bool = True,
        stats: Optional[ExecutionStats] = None,
    ) -> None:
        self.strict = strict
        self.stats = stats if stats is not None else ExecutionStats()
        self._handles: Dict[str, Tuple[Tuple, StandingQuery]] = {}
        self._evaluations: Dict[Tuple, _Evaluation] = {}
        # relation name -> (attribute tuple, #evaluations reading it):
        # one shared stream means one schema per relation name.
        self._schemas: Dict[str, Tuple[Tuple[str, ...], int]] = {}
        self._watermark: Optional[Number] = None
        self._closed = False
        self._names = itertools.count(1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TemporalJoinService(queries={len(self._handles)}, "
            f"watermark={self._watermark!r})"
        )

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        query: JoinQuery,
        tau: Number = 0,
        name: Optional[str] = None,
        policy: str = Backpressure.BLOCK,
        buffer_size: int = 1024,
        block_timeout: Optional[Number] = 30.0,
        retain_results: bool = True,
    ) -> StandingQuery:
        """Register a standing query; returns its consumer handle.

        May be called at any time, including mid-stream — a template
        registered after ingest began sees only arrivals from the
        current watermark on. Identical templates (same hypergraph, same
        τ) share one live operator; the handle still gets its own
        buffer, policy, and telemetry.
        """
        from ..algorithms.registry import _check_tau

        _check_tau(tau)
        if name is None:
            name = f"q{next(self._names)}"
        if name in self._handles:
            raise QueryError(f"standing query name {name!r} is already registered")
        handle = StandingQuery(
            name,
            query,
            tau,
            policy=policy,
            buffer_size=buffer_size,
            block_timeout=block_timeout,
            retain_results=retain_results,
        )
        key = (hypergraph_signature(query), tau)
        evaluation = self._evaluations.get(key)
        if evaluation is None:
            for relation in query.edge_names:
                attrs = tuple(query.edge(relation))
                known = self._schemas.get(relation)
                if known is not None and known[0] != attrs:
                    raise QueryError(
                        f"standing query {name!r} binds relation "
                        f"{relation!r} to attributes {attrs}, but the shared "
                        f"stream already carries it as {known[0]}"
                    )
            for relation in query.edge_names:
                known = self._schemas.get(relation)
                self._schemas[relation] = (
                    tuple(query.edge(relation)), (known[1] + 1) if known else 1
                )
            evaluation = _Evaluation(query, tau, stats=self.stats)
            # A template registered mid-stream starts at the current
            # watermark: it sees only arrivals from here on.
            if self._watermark is not None:
                evaluation.op.advance_to(self._watermark + evaluation.half)
            self._evaluations[key] = evaluation
        else:
            self.stats.incr("serve.template_dedup")
        evaluation.handles.append(handle)
        self._handles[name] = (key, handle)
        self.stats.incr("serve.registered")
        self.stats.peak("serve.queries_peak", len(self._handles))
        return handle

    def deregister(self, handle_or_name) -> None:
        """Remove a standing query; its template's operator dies with the
        last handle attached to it."""
        key, handle = self._entry(handle_or_name, pop=True)
        evaluation = self._evaluations[key]
        evaluation.handles.remove(handle)
        if not evaluation.handles:
            del self._evaluations[key]
            for relation in evaluation.query.edge_names:
                attrs, count = self._schemas[relation]
                if count <= 1:
                    del self._schemas[relation]
                else:
                    self._schemas[relation] = (attrs, count - 1)
        handle._close()
        self.stats.incr("serve.deregistered")

    def plan_for(self, handle_or_name) -> Plan:
        """The Figure-7 plan of a registered query's template.

        Planned on demand: the live operator picks its own sweep state,
        so registration never needs the plan, and the planner's search
        memo makes repeated calls cheap.
        """
        return plan(self._entry(handle_or_name)[1].query)

    def _entry(self, handle_or_name, pop: bool = False) -> Tuple[Tuple, StandingQuery]:
        name = (
            handle_or_name.name
            if isinstance(handle_or_name, StandingQuery)
            else handle_or_name
        )
        entry = self._handles.pop(name, None) if pop else self._handles.get(name)
        if entry is None:
            raise QueryError(f"standing query {name!r} is not registered")
        return entry

    @property
    def queries(self) -> List[StandingQuery]:
        return [handle for _, handle in self._handles.values()]

    @property
    def watermark(self) -> Optional[Number]:
        """Largest settled instant on the original (un-shrunk) timeline."""
        return self._watermark

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Streaming ingest
    # ------------------------------------------------------------------
    def append(self, relation: str, values: Values, interval: IntervalLike) -> int:
        """Ingest one tuple now; returns the number of emissions delivered.

        The arrival is fanned out to every evaluation whose template
        reads ``relation``; results finalized by it (its start proves
        earlier expirations settled) are delivered before returning.
        """
        stats = self.stats
        with stats.timer("phase.serve.ingest"):
            if self._closed:
                raise QueryError("append after finish() on the service")
            known = self._schemas.get(relation)
            if known is not None and len(values) != len(known[0]):
                raise QueryError(
                    f"arity mismatch: relation {relation!r} carries attributes "
                    f"{known[0]}, got {len(values)}-tuple {values!r}"
                )
            check_hashable(relation, values)
            iv = Interval.coerce(interval)
            watermark = self._watermark
            if watermark is not None and iv.lo < watermark:
                if self.strict:
                    raise QueryError(
                        f"out-of-order arrival: start {iv.lo} precedes the "
                        f"service watermark {watermark}"
                    )
                clamped = Interval(watermark, max(watermark, iv.hi))
                stats.incr("serve.clamped")
                stats.note(
                    "serve.clamp_reason",
                    f"out-of-order arrival {relation}{values} {iv} clamped to "
                    f"{clamped} at service watermark {watermark}",
                )
                iv = clamped
            self._watermark = iv.lo if watermark is None else max(watermark, iv.lo)
            stats.incr("serve.appends")
            if known is None:
                # No registered template reads this relation: the append
                # is legal (streams outlive query fleets) but does no work.
                stats.incr("serve.unmatched_appends")
            delivered = 0
            active = 0
            errors: List[QueryError] = []
            for evaluation in self._evaluations.values():
                if relation in evaluation.relations:
                    half = evaluation.half
                    run_iv = iv.shrink(half) if half else iv
                    if run_iv is None:
                        # Shorter than τ: never in a τ-durable result.
                        stats.incr("serve.shrink_dropped")
                    else:
                        stats.incr("serve.fanout_inserts")
                        rows = evaluation.op.insert(relation, values, run_iv)
                        delivered += self._dispatch(
                            evaluation, rows, iv.lo, errors
                        )
                active += evaluation.op.active_count
            stats.peak("serve.active_peak", active)
            if errors:
                raise errors[0]
            return delivered

    def advance_to(self, watermark: Number) -> int:
        """Declare that no future arrival starts before ``watermark``.

        Drives per-template expiry: every evaluation drains expirations
        strictly below the (τ-translated) watermark and the finalized
        results are delivered. Returns the number of emissions. A
        watermark at or below the current one is a counted no-op.
        """
        stats = self.stats
        with stats.timer("phase.serve.ingest"):
            if self._closed:
                raise QueryError("advance_to after finish() on the service")
            check_watermark(watermark)
            if self._watermark is not None and watermark <= self._watermark:
                if watermark < self._watermark:
                    stats.incr("serve.watermark_regressions")
                return 0
            self._watermark = watermark
            stats.incr("serve.watermarks")
            delivered = 0
            errors: List[QueryError] = []
            for evaluation in self._evaluations.values():
                rows = evaluation.op.advance_to(watermark + evaluation.half)
                delivered += self._dispatch(evaluation, rows, watermark, errors)
            if errors:
                raise errors[0]
            return delivered

    def finish(self) -> int:
        """Flush every standing query and close the ingest path. Idempotent."""
        with self.stats.timer("phase.serve.ingest"):
            if self._closed:
                return 0
            self._closed = True
            # Everything is settled once the stream ends: the watermark
            # jumps to +inf and every handle's snapshot becomes complete.
            self._watermark = float("inf")
            delivered = 0
            errors: List[QueryError] = []
            for evaluation in self._evaluations.values():
                rows = evaluation.op.finish()
                delivered += self._dispatch(evaluation, rows, None, errors)
            for evaluation in self._evaluations.values():
                for handle in evaluation.handles:
                    handle._close()
            if errors:
                raise errors[0]
            return delivered

    def ingest_stream(
        self,
        arrivals: Iterable[Tuple[str, Values, IntervalLike]],
        finish: bool = False,
    ) -> int:
        """Append a pre-ordered arrival stream; returns emissions delivered."""
        delivered = 0
        for relation, values, interval in arrivals:
            delivered += self.append(relation, values, interval)
        if finish:
            delivered += self.finish()
        return delivered

    def ingest_database(self, database: Database, finish: bool = True) -> int:
        """Stream a stored database through :meth:`append` in one pass.

        The database is replayed in endpoint order (the stream may be
        left open with ``finish=False``). Returns the number of emissions
        delivered and counts one ``serve.ingest_passes`` — the whole
        point is that N standing queries share a single pass.
        """
        if self._closed:
            raise QueryError("ingest_database after finish() on the service")
        self.stats.incr("serve.ingest_passes")
        started = time.perf_counter()
        delivered = self.ingest_stream(arrivals_from_database(database), finish=finish)
        self.stats.add_time("phase.serve.pass", time.perf_counter() - started)
        return delivered

    # ------------------------------------------------------------------
    def _dispatch(
        self,
        evaluation: _Evaluation,
        rows: List[ResultRow],
        trigger: Optional[Number],
        errors: List[QueryError],
    ) -> int:
        """Expand, project and deliver freshly finalized rows.

        Every handle receives its rows. A handle whose backpressure
        policy raises (``error`` overflow, ``block`` timeout) has its
        error appended to ``errors``; the caller re-raises the first one
        once every evaluation has been served. Once an error is recorded
        the call is bound to raise, so later ``block`` handles do not
        wait for room: the call stalls at most one ``block_timeout``.
        """
        watermark = self._watermark
        if not rows:
            for handle in evaluation.handles:
                handle._deliver([], watermark)
            return 0
        half = evaluation.half
        stats = self.stats
        with stats.timer("phase.serve.deliver"):
            emissions: List[Emission] = []
            for values, iv in rows:
                out_iv = iv.expand(half) if half else iv
                # End-of-stream flushes carry no event time; their
                # emissions are stamped at their own right endpoint
                # (zero lag by construction).
                at = trigger if trigger is not None else out_iv.hi
                emissions.append(Emission(values, out_iv, at))
            for handle in evaluation.handles:
                projection = evaluation.projection(handle.query)
                if projection is None:
                    batch = emissions
                else:
                    batch = [
                        Emission(
                            tuple(e.values[p] for p in projection),
                            e.interval,
                            e.at,
                        )
                        for e in emissions
                    ]
                try:
                    handle._deliver(batch, watermark, wait=not errors)
                except QueryError as exc:
                    # One handle's backpressure error must not cost its
                    # siblings rows the operator has already emitted.
                    errors.append(exc)
        stats.incr("serve.results_emitted", len(rows))
        return len(emissions) * len(evaluation.handles)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def telemetry(self) -> ExecutionStats:
        """Service stats with every standing query's stats folded in."""
        merged = ExecutionStats()
        merged.merge(self.stats)
        for handle in self.queries:
            merged.merge(handle.stats)
        return merged

    def slo_report(self) -> str:
        """Human-readable per-query SLO summary (counts, lag, depth)."""
        lines = [
            f"{'query':<12} {'template':<22} {'tau':>5} {'delivered':>9} "
            f"{'lag.max':>7} {'depth.peak':>10} {'dropped':>7}"
        ]
        for handle in sorted(self.queries, key=lambda h: h.name):
            stats = handle.stats
            template = ",".join(sorted(handle.query.edge_names))
            lines.append(
                f"{handle.name:<12} {template:<22} {handle.tau:>5g} "
                f"{handle.delivered:>9} "
                f"{stats.get('serve.emit_lag.max'):>7} "
                f"{stats.get('serve.buffer_depth_peak'):>10} "
                f"{stats.get('serve.dropped'):>7}"
            )
        ingest = self.stats.timers.get("phase.serve.ingest", 0.0)
        appends = self.stats.get("serve.appends")
        if ingest > 0 and appends:
            lines.append(
                f"ingest: {appends} tuples in {ingest * 1e3:.1f} ms "
                f"({appends / ingest:,.0f} tuples/s)"
            )
        return "\n".join(lines)
