"""Tests for binary temporal joins and the pairwise BASELINE."""

import pytest

from repro.algorithms.baseline import baseline_join, choose_join_order
from repro.algorithms.binary import binary_temporal_join
from repro.algorithms.naive import naive_join
from repro.core.interval import Interval
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation
from repro.core.errors import QueryError
from repro.obs import ExecutionStats

from conftest import random_database


class TestBinaryTemporalJoin:
    def test_key_and_interval_predicate(self):
        left = TemporalRelation(
            "L", ("a", "b"), [((1, 2), (0, 10)), ((1, 3), (0, 10))]
        )
        right = TemporalRelation(
            "R", ("b", "c"), [((2, "x"), (5, 20)), ((2, "y"), (50, 60))]
        )
        out = binary_temporal_join(left, right)
        rows = {v: iv for v, iv in out}
        assert rows == {(1, 2, "x"): Interval(5, 10)}

    def test_schema_composition(self):
        left = TemporalRelation("L", ("a", "b"), [((1, 2), (0, 10))])
        right = TemporalRelation("R", ("b", "c"), [((2, 3), (0, 10))])
        out = binary_temporal_join(left, right)
        assert out.attrs == ("a", "b", "c")

    def test_temporal_cartesian_product(self):
        left = TemporalRelation("L", ("a",), [((1,), (0, 10)), ((2,), (40, 50))])
        right = TemporalRelation("R", ("b",), [((9,), (5, 45))])
        out = binary_temporal_join(left, right)
        assert sorted(v for v, _ in out) == [(1, 9), (2, 9)]

    def test_multiple_shared_attrs(self):
        left = TemporalRelation("L", ("a", "b"), [((1, 2), (0, 10))])
        right = TemporalRelation(
            "R", ("a", "b", "c"), [((1, 2, 3), (5, 9)), ((1, 9, 4), (5, 9))]
        )
        out = binary_temporal_join(left, right)
        assert [v for v, _ in out] == [(1, 2, 3)]

    def test_matches_naive_two_way(self, rng):
        q = JoinQuery.line(2)
        for _ in range(5):
            db = random_database(q, rng, n=15, domain=4)
            got = binary_temporal_join(db["R1"], db["R2"])
            want = naive_join(q, db)
            got_rows = sorted(
                (tuple(v[got.positions(q.attrs)[i]] for i in range(len(q.attrs))), iv)
                for v, iv in got
            )
            assert got_rows == [(v, iv) for v, iv in want.normalized()]


class TestJoinOrder:
    def test_two_relations_trivial(self, rng):
        q = JoinQuery.line(2)
        db = random_database(q, rng)
        assert choose_join_order(q, db) == ["R1", "R2"]

    def test_connected_prefixes(self, rng):
        q = JoinQuery.line(4)
        db = random_database(q, rng)
        order = choose_join_order(q, db)
        hg = q.hypergraph
        covered = set(hg.edge(order[0]))
        for name in order[1:]:
            assert covered & set(hg.edge(name))
            covered |= set(hg.edge(name))

    def test_order_prefers_small_intermediates(self):
        # R2 ⋈ R3 is tiny (distinct keys), R1 ⋈ R2 is huge (one hub key):
        # the search must not start with R1 ⋈ R2.
        q = JoinQuery.line(3)
        hub_rows = [((i, 0), (0, 100)) for i in range(20)]
        r2_rows = [((0, i), (0, 100)) for i in range(20)]
        r3_rows = [((19, 5), (0, 100))]
        db = {
            "R1": TemporalRelation("R1", ("x1", "x2"), hub_rows),
            "R2": TemporalRelation("R2", ("x2", "x3"), r2_rows),
            "R3": TemporalRelation("R3", ("x3", "x4"), r3_rows),
        }
        order = choose_join_order(q, db)
        assert set(order[:2]) != {"R1", "R2"}

    def test_greedy_path_for_large_queries(self, rng):
        q = JoinQuery.line(8)
        db = random_database(q, rng, n=5, domain=3)
        order = choose_join_order(q, db)
        assert sorted(order) == sorted(q.edge_names)


class TestBaselineJoin:
    @pytest.mark.parametrize(
        "query",
        [
            JoinQuery.line(3),
            JoinQuery.star(3),
            JoinQuery.triangle(),
            JoinQuery.cycle(4),
            JoinQuery.bowtie(),
            JoinQuery.hier(),
        ],
    )
    def test_matches_naive(self, query, rng):
        for _ in range(3):
            db = random_database(query, rng, n=10, domain=3)
            got = baseline_join(query, db)
            want = naive_join(query, db)
            assert got.normalized() == want.normalized()

    def test_durable(self, rng):
        q = JoinQuery.star(3)
        for tau in [0, 4, 9]:
            db = random_database(q, rng, n=12, domain=3)
            got = baseline_join(q, db, tau=tau)
            want = naive_join(q, db, tau=tau)
            assert got.normalized() == want.normalized()

    def test_explicit_order(self, rng):
        q = JoinQuery.line(3)
        db = random_database(q, rng, n=10, domain=3)
        got = baseline_join(q, db, order=["R3", "R2", "R1"])
        assert got.normalized() == naive_join(q, db).normalized()

    def test_bad_order_rejected(self, rng):
        q = JoinQuery.line(3)
        db = random_database(q, rng)
        with pytest.raises(QueryError):
            baseline_join(q, db, order=["R1", "R2"])

    def test_track_intermediates(self, rng):
        q = JoinQuery.line(3)
        db = random_database(q, rng, n=10, domain=3)
        stats = ExecutionStats()
        baseline_join(q, db, stats=stats)
        # Two binary joins for three relations, one size observation each.
        assert stats["bin.joins"] == 2
        assert stats["bin.intermediate_rows.count"] == 2
        assert stats["bin.intermediate_rows.total"] >= 0

    def test_short_circuit_on_empty_intermediate(self):
        q = JoinQuery.line(3)
        db = {
            "R1": TemporalRelation("R1", ("x1", "x2"), [((1, 2), (0, 1))]),
            "R2": TemporalRelation("R2", ("x2", "x3"), [((9, 9), (0, 1))]),
            "R3": TemporalRelation("R3", ("x3", "x4"), [((9, 9), (0, 1))]),
        }
        assert len(baseline_join(q, db)) == 0
