"""TIMEFIRST (Algorithm 1): the sweep framework for temporal joins.

The driver is agnostic to the dynamic structure ``D``: any object
implementing :class:`SweepState` can be plugged in. Two states ship with
the library —

* :class:`~repro.algorithms.hierarchical.HierarchicalState` for
  (r-)hierarchical queries (Section 3.2, ``O(N log N + K)``), and
* :class:`~repro.algorithms.generic_state.GenericGHDState` for arbitrary
  queries (Section 3.3, ``O(N^(fhtw+1) + K)``).

The public entry points below also handle the τ-durable reduction (shrink
inputs by τ/2, expand result intervals back) so callers never deal with
the transform directly.
"""

from __future__ import annotations

from typing import Mapping, Optional, Protocol, Tuple

from ..core.errors import InvariantError
from ..core.interval import Interval, Number
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from ..obs import ExecutionStats
from .events import EXPIRE, INSERT, event_stream

Values = Tuple[object, ...]


class SweepState(Protocol):
    """The dynamic structure ``D`` maintained by the sweep.

    Implementations own their output: ``enumerate_results`` appends every
    temporal join result involving the expiring tuple directly to the
    result set handed to them (avoiding per-call list churn).
    """

    def insert(self, relation: str, values: Values, interval: Interval) -> None:
        """Algorithm 1, line 6."""
        ...

    def enumerate_results(
        self,
        relation: str,
        values: Values,
        interval: Interval,
        out: JoinResultSet,
    ) -> None:
        """Algorithm 1, line 8 — results participated by the expiring tuple."""
        ...

    def delete(self, relation: str, values: Values, interval: Interval) -> None:
        """Algorithm 1, line 9."""
        ...


def sweep(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    state: SweepState,
    stats: Optional[ExecutionStats] = None,
) -> JoinResultSet:
    """Run Algorithm 1 with the supplied dynamic structure.

    The database is assumed already shrunk if a durability threshold
    applies; use :func:`timefirst_join` for the full τ-aware entry point.

    When ``stats`` is given, records ``sweep.events`` (always ``2N``),
    ``sweep.inserts``, ``sweep.enumerate_calls`` (one per expiration),
    ``sweep.active_peak`` (high-water mark of the active set), the final
    ``results`` count, and the ``phase.events`` / ``phase.sweep`` timers.
    With ``stats=None`` the uninstrumented loop below runs unchanged.
    """
    out = JoinResultSet(query.attrs)
    if stats is None:
        for event in event_stream(database):
            if event.kind == INSERT:
                state.insert(event.relation, event.values, event.interval)
            else:
                state.enumerate_results(
                    event.relation, event.values, event.interval, out
                )
                state.delete(event.relation, event.values, event.interval)
        return out

    with stats.timer("phase.events"):
        events = event_stream(database)
    active = peak = inserts = 0
    with stats.timer("phase.sweep"):
        for event in events:
            if event.kind == INSERT:
                inserts += 1
                active += 1
                if active > peak:
                    peak = active
                state.insert(event.relation, event.values, event.interval)
            else:
                state.enumerate_results(
                    event.relation, event.values, event.interval, out
                )
                state.delete(event.relation, event.values, event.interval)
                active -= 1
    stats.incr("sweep.events", len(events))
    stats.incr("sweep.inserts", inserts)
    stats.incr("sweep.enumerate_calls", len(events) - inserts)
    stats.peak("sweep.active_peak", peak)
    stats.incr("results", len(out))
    return out


def timefirst_join(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number = 0,
    state_factory: Optional[object] = None,
    stats: Optional[ExecutionStats] = None,
) -> JoinResultSet:
    """τ-durable temporal join via TIMEFIRST with an auto-selected state.

    Selection follows Section 3: hierarchical queries (after linear-time
    reduction when merely r-hierarchical) use the attribute-tree structure;
    everything else uses the GHD-based generic state. Validation, the
    τ/2-shrink and the reduction are
    :func:`repro.kernels.engine.prepare_run`, shared with the kernel
    path.

    ``state_factory`` overrides the choice: a callable
    ``(query, database) -> SweepState``, handed the reduced instance
    when the query is merely r-hierarchical. ``stats`` opts into
    execution telemetry (see :mod:`repro.obs`); it is handed to the
    sweep and to the built-in states, which add their structure-level
    counters.
    """
    from ..kernels.engine import prepare_run
    from .generic_state import GenericGHDState
    from .hierarchical import HierarchicalState

    run_query, run_db = prepare_run(query, database, tau, stats=stats)
    if state_factory is not None:
        state = state_factory(run_query, run_db)  # type: ignore[operator]
    elif run_query.is_hierarchical:
        state = HierarchicalState(run_query, stats=stats)
    else:
        state = GenericGHDState(run_query, run_db, stats=stats)

    result = sweep(run_query, run_db, state, stats=stats)
    if tuple(result.attrs) != tuple(query.attrs):  # pragma: no cover - defensive
        raise InvariantError("sweep returned unexpected attribute layout")
    return result.expand_intervals(tau / 2 if tau else 0)
