"""Edge-case and error-path coverage across the library surface."""

import pytest

from repro.core.errors import (
    IntervalError,
    PlanError,
    QueryError,
    ReproError,
    SchemaError,
)
from repro.core.interval import Interval
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc", [SchemaError, QueryError, PlanError, IntervalError]
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")


class TestDuplicateTupleGuard:
    def test_hierarchical_sweep_rejects_duplicates(self):
        from repro.algorithms.registry import temporal_join

        q = JoinQuery.star(2)
        dup = TemporalRelation(
            "R1", ("x1", "y"),
            [((1, "h"), (0, 5)), ((1, "h"), (1, 9))],
            check_distinct=False,
        )
        db = {
            "R1": dup,
            "R2": TemporalRelation("R2", ("x2", "y"), [((2, "h"), (0, 9))]),
        }
        with pytest.raises(QueryError):
            temporal_join(q, db, algorithm="timefirst")


class TestSingleRelationQueries:
    """m = 1 degenerates every algorithm to a scan — all must cope."""

    @pytest.mark.parametrize(
        "algorithm", ["timefirst", "baseline", "hybrid", "joinfirst", "naive", "auto"]
    )
    def test_single_relation(self, algorithm):
        from repro.algorithms.registry import temporal_join

        q = JoinQuery({"R": ("a", "b")})
        db = {
            "R": TemporalRelation(
                "R", ("a", "b"), [((1, 2), (0, 5)), ((3, 4), (2, 9))]
            )
        }
        out = temporal_join(q, db, algorithm=algorithm)
        assert sorted(out.values_only()) == [(1, 2), (3, 4)]

    def test_single_relation_durable(self):
        from repro.algorithms.registry import temporal_join

        q = JoinQuery({"R": ("a",)})
        db = {
            "R": TemporalRelation("R", ("a",), [((1,), (0, 3)), ((2,), (0, 9))])
        }
        out = temporal_join(q, db, tau=5)
        assert out.values_only() == [(2,)]
        assert out.rows[0][1] == Interval(0, 9)


class TestUnaryEverything:
    """All-unary queries (set intersections with intervals)."""

    @pytest.mark.parametrize(
        "algorithm", ["timefirst", "baseline", "hybrid", "joinfirst"]
    )
    def test_three_unary_relations(self, algorithm):
        from repro.algorithms.naive import naive_join
        from repro.algorithms.registry import temporal_join

        q = JoinQuery({"R1": ("a",), "R2": ("a",), "R3": ("a",)})
        db = {
            "R1": TemporalRelation("R1", ("a",), [((1,), (0, 9)), ((2,), (0, 9))]),
            "R2": TemporalRelation("R2", ("a",), [((1,), (3, 20)), ((3,), (0, 9))]),
            "R3": TemporalRelation("R3", ("a",), [((1,), (5, 7))]),
        }
        got = temporal_join(q, db, algorithm=algorithm)
        assert got.normalized() == naive_join(q, db).normalized()
        assert got.rows == [((1,), Interval(5, 7))]


class TestHarnessValidation:
    def test_compare_flags_result_mismatch(self, monkeypatch, rng):
        from conftest import random_database
        from repro.algorithms import registry
        from repro.bench.harness import compare_algorithms
        from repro.core.result import JoinResultSet

        q = JoinQuery.line(2)
        db = random_database(q, rng, n=10, domain=2, time_span=10)

        def broken(query, database, tau=0, **kwargs):
            out = JoinResultSet(query.attrs)
            out.append(tuple("?" for _ in query.attrs), Interval(0, 1))
            return out

        registry._ensure_loaded()
        monkeypatch.setitem(registry._REGISTRY, "broken", broken)
        ms = compare_algorithms(
            ["timefirst", "broken"], q, db, measure_memory=False, validate=True
        )
        by = {m.algorithm: m for m in ms}
        assert by["timefirst"].ok
        assert not by["broken"].ok
        assert "MISMATCH" in by["broken"].note

    def test_measure_repeat_takes_min(self, rng):
        from conftest import random_database
        from repro.bench.harness import measure

        q = JoinQuery.line(2)
        db = random_database(q, rng, n=10, domain=3)
        m1 = measure("timefirst", q, db, measure_memory=False, repeat=1)
        m3 = measure("timefirst", q, db, measure_memory=False, repeat=3)
        assert m3.seconds <= m1.seconds * 3  # sanity; min-of-3 is stable


class TestIntervalTreeUnbounded:
    def test_static_tree_with_infinite_endpoints(self):
        from repro.datastructures.interval_tree import StaticIntervalTree

        items = [
            (Interval.always(), "always"),
            (Interval(0, 5), "short"),
            (Interval(3, float("inf")), "open-ended"),
        ]
        tree = StaticIntervalTree(items)
        hits = {p for _, p in tree.stab(4)}
        assert hits == {"always", "short", "open-ended"}
        hits = {p for _, p in tree.overlapping(Interval(100, 200))}
        assert hits == {"always", "open-ended"}

    def test_dynamic_index_with_infinite_endpoints(self):
        from repro.datastructures.interval_tree import DynamicIntervalIndex

        idx = DynamicIntervalIndex()
        idx.insert(Interval.always(), "always")
        idx.insert(Interval(0, 5), "short")
        hits = {p for _, p in idx.overlapping(Interval(50, 60))}
        assert hits == {"always"}


def _run_temporal_join(query, db, **kwargs):
    from repro.algorithms.registry import temporal_join

    return temporal_join(query, db, **kwargs)


def _run_explain_analyze(query, db, **kwargs):
    from repro.algorithms.registry import explain_analyze

    return explain_analyze(query, db, **kwargs)


def _run_batch(query, db, **kwargs):
    from repro.kernels.prepared import prepare, run_batch

    return run_batch([query], prepare(db), **kwargs)


_ENTRY_POINTS = [_run_temporal_join, _run_explain_analyze, _run_batch]


class TestDispatchArguments:
    """Bad ``workers`` / ``parallel_mode`` / algorithm kwargs fail at the
    API boundary with :class:`QueryError`, the same way at every entry
    point — never a raw ``TypeError`` or a silent serial run."""

    @pytest.fixture
    def line2(self):
        q = JoinQuery.line(2)
        db = {
            "R1": TemporalRelation("R1", ("x1", "x2"), [((1, 2), (0, 5))]),
            "R2": TemporalRelation("R2", ("x2", "x3"), [((2, 3), (1, 9))]),
        }
        return q, db

    @pytest.mark.parametrize("entry", _ENTRY_POINTS)
    @pytest.mark.parametrize("workers", [0, -3, 2.5, "2", True])
    def test_bad_workers_rejected(self, line2, entry, workers):
        q, db = line2
        with pytest.raises(QueryError, match="workers"):
            entry(q, db, workers=workers)

    @pytest.mark.parametrize("entry", _ENTRY_POINTS)
    def test_bad_parallel_mode_rejected(self, line2, entry):
        q, db = line2
        with pytest.raises(QueryError, match="parallel mode"):
            entry(q, db, workers=2, parallel_mode="threads")

    @pytest.mark.parametrize("entry", _ENTRY_POINTS)
    def test_valid_workers_accepted(self, line2, entry):
        q, db = line2
        for workers in (None, 1, 2):
            entry(q, db, workers=workers, parallel_mode="inline")

    @pytest.mark.parametrize("entry", [_run_temporal_join, _run_explain_analyze])
    @pytest.mark.parametrize(
        "algorithm", ["timefirst", "hybrid", "auto", "baseline"]
    )
    @pytest.mark.parametrize(
        "kwargs", [{"bogus": 1}, {"engine": "kernel"}], ids=["bogus", "engine"]
    )
    def test_unknown_algorithm_kwargs_rejected(
        self, line2, entry, algorithm, kwargs
    ):
        q, db = line2
        (name,) = kwargs
        with pytest.raises(QueryError, match=f"{name}.*accepts") as info:
            entry(q, db, algorithm=algorithm, **kwargs)
        assert "tau" in str(info.value)  # names the accepted keywords

    @pytest.mark.parametrize(
        "entry", ["temporal_join", "explain_analyze", "run_batch"]
    )
    @pytest.mark.parametrize(
        "case", ["prepared-not-artifact", "query-not-joinquery",
                 "database-missing", "queries-missing"],
    )
    def test_bad_argument_types_rejected_by_preamble(self, line2, entry, case):
        from repro.algorithms.registry import explain_analyze, temporal_join
        from repro.kernels.prepared import prepare, run_batch

        q, db = line2
        if entry == "run_batch":
            queries, prepared = {
                "prepared-not-artifact": ([q], "x"),
                "query-not-joinquery": (["R1(x)"], prepare(db)),
                "database-missing": ([q], None),
                "queries-missing": (None, prepare(db)),
            }[case]
            call = lambda: run_batch(queries, prepared)  # noqa: E731
        else:
            fn = temporal_join if entry == "temporal_join" else explain_analyze
            query, database, kwargs = {
                "prepared-not-artifact": (q, db, {"prepared": "x"}),
                "query-not-joinquery": ("R1(x)", db, {}),
                "database-missing": (q, None, {}),
                "queries-missing": (None, db, {}),
            }[case]
            call = lambda: fn(query, database, **kwargs)  # noqa: E731
        with pytest.raises(QueryError) as info:
            call()
        raised_in = {frame.name for frame in info.traceback}
        assert raised_in & {"_check_call", "_check_prepared"}

    def test_unknown_kwargs_rejected_sharded_and_batch(self, line2):
        q, db = line2
        with pytest.raises(QueryError, match="engine"):
            _run_temporal_join(
                q, db, algorithm="timefirst", workers=2,
                parallel_mode="inline", engine="kernel",
            )
        with pytest.raises(QueryError, match="engine"):
            _run_batch(q, db, engine="kernel")
