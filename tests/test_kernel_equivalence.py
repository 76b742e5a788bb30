"""Hypothesis: kernel and object substrates are observationally identical.

Satellite property suite: for randomly drawn instances —
including duplicate endpoint values, zero-length intervals and infinite
endpoints — ``temporal_join(algorithm="timefirst")`` (the columnar
kernel), the object-row ``timefirst_join`` and the ``naive``
oracle produce the same normalized
:class:`~repro.core.result.JoinResultSet`, for τ ∈ {0, >0} and for
workers ∈ {1, 3}; every other registered algorithm matches ``naive``.

Instances are deliberately tiny (≤ 6 tuples per relation, domain of 3,
endpoints in a dozen-value range) so that endpoint collisions and
boundary coincidences are the *common* case, not the rare one.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro import temporal_join  # noqa: E402
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

# Endpoints are drawn from a small integer range plus +/-inf so that
# duplicate endpoints, instantaneous intervals and unbounded intervals
# all occur frequently.
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
            if values in seen:  # relations are sets of value tuples
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


@settings(max_examples=60, deadline=None)
@given(instance=_instance(), tau=st.sampled_from([0, 3]))
def test_kernel_matches_object_serial(instance, tau):
    query, database = instance
    want = _object_reference(query, database, tau)
    got = temporal_join(
        query, database, tau=tau, algorithm="timefirst"
    ).normalized()
    assert got == want


@settings(max_examples=30, deadline=None)
@given(instance=_instance(), tau=st.sampled_from([0, 3]))
def test_kernel_matches_object_parallel(instance, tau):
    query, database = instance
    want = _object_reference(query, database, tau)
    for workers in (1, 3):
        got = temporal_join(
            query, database, tau=tau, algorithm="timefirst",
            workers=workers, parallel_mode="inline",
        ).normalized()
        assert got == want, workers


@settings(max_examples=25, deadline=None)
@given(instance=_instance(), tau=st.sampled_from([0, 3]))
def test_registry_matches_naive(instance, tau):
    """Every registered algorithm, whichever substrate it runs on,
    returns the naive oracle's answer — or, when structurally
    inapplicable to the instance, a ``repro`` error."""
    query, database = instance
    want = naive_join(query, database, tau=tau).normalized()
    for algorithm in available_algorithms():
        try:
            got = temporal_join(query, database, tau=tau, algorithm=algorithm)
        except (PlanError, QueryError):
            # timefirst-cm on a non-hierarchical query, or
            # hybrid-interval on a cyclic one.
            assert algorithm in ("timefirst-cm", "hybrid-interval")
            continue
        assert got.normalized() == want, algorithm
