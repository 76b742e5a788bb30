"""Hypothesis: prepared and cold execution are observationally identical.

Acceptance property suite for the prepared-columns engine: for randomly
drawn instances — duplicate endpoints, zero-length and ±inf intervals
included — ``temporal_join(..., prepared=prepare(db))`` and
:func:`repro.run_batch` produce the same normalized results as cold
calls — the object-row ``timefirst_join`` and the ``naive``
oracle — across every registered algorithm, τ ∈ {0, 3} and
workers ∈ {1, 3}.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro import prepare, run_batch, temporal_join  # noqa: E402
from repro.algorithms.naive import naive_join  # noqa: E402
from repro.algorithms.registry import available_algorithms  # noqa: E402
from repro.algorithms.timefirst import timefirst_join  # noqa: E402
from repro.core.errors import PlanError, QueryError  # noqa: E402
from repro.core.interval import Interval  # noqa: E402
from repro.core.query import JoinQuery  # noqa: E402
from repro.core.relation import TemporalRelation  # noqa: E402

QUERIES = (
    JoinQuery.line(3),   # acyclic, non-hierarchical -> generic kernel state
    JoinQuery.star(3),   # hierarchical -> hierarchical kernel state
    JoinQuery.triangle(),  # cyclic -> generic kernel state over a GHD
)

_INF = float("inf")

_lo = st.one_of(st.integers(min_value=-4, max_value=6), st.just(-_INF))
_dur = st.one_of(st.integers(min_value=0, max_value=5), st.just(_INF))


@st.composite
def _instance(draw):
    query = draw(st.sampled_from(QUERIES))
    database = {}
    for name in query.edge_names:
        attrs = query.edge(name)
        raw = draw(
            st.lists(
                st.tuples(
                    st.tuples(*[st.integers(0, 2) for _ in attrs]),
                    _lo,
                    _dur,
                ),
                min_size=0,
                max_size=6,
            )
        )
        rows, seen = [], set()
        for values, lo, dur in raw:
            if values in seen:
                continue
            seen.add(values)
            hi = _INF if dur == _INF else (dur if lo == -_INF else lo + dur)
            rows.append((values, Interval(lo, hi)))
        database[name] = TemporalRelation(name, attrs, rows)
    return query, database


def _object_reference(query, database, tau):
    """The object-row ``timefirst_join``, checked against the naive oracle."""
    want = timefirst_join(query, database, tau=tau).normalized()
    assert want == naive_join(query, database, tau=tau).normalized()
    return want


@settings(max_examples=50, deadline=None)
@given(instance=_instance(), tau=st.sampled_from([0, 3]))
def test_prepared_matches_cold_serial(instance, tau):
    query, database = instance
    artifact = prepare(database)
    want = _object_reference(query, database, tau)
    got = temporal_join(
        query, database, tau=tau, algorithm="timefirst", prepared=artifact
    ).normalized()
    assert got == want


@settings(max_examples=25, deadline=None)
@given(instance=_instance(), tau=st.sampled_from([0, 3]))
def test_prepared_matches_cold_parallel(instance, tau):
    query, database = instance
    artifact = prepare(database)
    want = _object_reference(query, database, tau)
    for workers in (1, 3):
        got = temporal_join(
            query, database, tau=tau, algorithm="timefirst",
            prepared=artifact, workers=workers, parallel_mode="inline",
        ).normalized()
        assert got == want, workers


@settings(max_examples=25, deadline=None)
@given(instance=_instance(), tau=st.sampled_from([0, 3]))
def test_run_batch_matches_cold(instance, tau):
    """A batch with a duplicate and an attr-order variant equals cold
    per-query calls — shared sweeps and projections change nothing."""
    query, database = instance
    variant = JoinQuery(
        {name: query.edge(name) for name in query.edge_names},
        attr_order=tuple(reversed(query.attrs)),
    )
    fleet = [query, query, variant]
    artifact = prepare(database)
    for workers in (1, 3):
        results = run_batch(
            fleet, artifact, tau=tau, algorithm="timefirst",
            workers=workers, parallel_mode="inline",
        )
        for q, result in zip(fleet, results):
            want = timefirst_join(q, database, tau=tau).normalized()
            assert result.normalized() == want, (q.attrs, workers)


@settings(max_examples=15, deadline=None)
@given(instance=_instance(), tau=st.sampled_from([0, 3]))
def test_prepared_kwarg_uniform_across_registry(instance, tau):
    """``prepared=`` is accepted by *every* registered algorithm and
    never changes its answer (object-path algorithms ignore it)."""
    query, database = instance
    artifact = prepare(database)
    for algorithm in available_algorithms():
        try:
            want = temporal_join(
                query, database, tau=tau, algorithm=algorithm
            ).normalized()
        except (PlanError, QueryError):
            with pytest.raises((PlanError, QueryError)):
                temporal_join(
                    query, database, tau=tau, algorithm=algorithm,
                    prepared=artifact,
                )
            continue
        got = temporal_join(
            query, database, tau=tau, algorithm=algorithm, prepared=artifact
        ).normalized()
        assert got == want, algorithm
