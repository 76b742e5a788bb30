"""Tests for the parallel executor, merge telemetry, and registry routing."""

import random

import pytest

from repro.algorithms.registry import (
    EXECUTOR_KWARGS,
    explain_analyze,
    strip_unsupported_kwargs,
    temporal_join,
)
from repro.core.errors import QueryError
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation
from repro.obs import ExecutionStats
from repro.parallel.executor import sharded_join
from repro.parallel.partition import TimePartition, partition_timeline
from repro.workloads.synthetic import SyntheticConfig, generate

from conftest import random_database


@pytest.fixture
def line3():
    query = JoinQuery.line(3)
    db = generate(query, SyntheticConfig(n_dangling=25, n_results=8))
    return query, db


class TestExecutor:
    def test_workers_one_runs_inline(self, line3):
        query, db = line3
        stats = ExecutionStats()
        got = sharded_join(
            query, db, 0, "timefirst", {}, partition_timeline(db, 1),
            "process", stats=stats,
        )
        want = temporal_join(query, db, algorithm="timefirst")
        assert got.normalized() == want.normalized()
        assert stats["parallel.shards"] == 1
        assert stats["parallel.replicated"] == 0

    def test_degenerate_endpoints_collapse_shards(self):
        query = JoinQuery.star(2)
        db = {
            "R1": TemporalRelation("R1", ("x1", "y"), [(("a", "h"), (5, 5))]),
            "R2": TemporalRelation("R2", ("x2", "y"), [(("u", "h"), (5, 5))]),
        }
        stats = ExecutionStats()
        got = temporal_join(
            query, db, algorithm="timefirst", workers=4,
            parallel_mode="inline", stats=stats,
        )
        assert stats["parallel.shards"] == 1
        assert len(got) == 1

    def test_empty_database(self):
        query = JoinQuery.star(2)
        db = {
            "R1": TemporalRelation("R1", ("x1", "y")),
            "R2": TemporalRelation("R2", ("x2", "y")),
        }
        got = temporal_join(
            query, db, algorithm="timefirst", workers=4, parallel_mode="inline"
        )
        assert len(got) == 0

    def test_more_workers_than_tuples(self):
        query = JoinQuery.star(2)
        db = random_database(query, random.Random(1), n=3, domain=2)
        want = temporal_join(query, db, algorithm="timefirst").normalized()
        got = temporal_join(
            query, db, algorithm="timefirst", workers=16, parallel_mode="inline"
        )
        assert got.normalized() == want

    def test_auto_algorithm_resolved_once(self, line3, monkeypatch):
        from repro.core import planner

        query, db = line3
        want = temporal_join(query, db, algorithm="auto").normalized()
        calls = []
        real_plan = planner.plan

        def counting_plan(*args, **kwargs):
            calls.append(1)
            return real_plan(*args, **kwargs)

        monkeypatch.setattr(planner, "plan", counting_plan)
        got = temporal_join(
            query, db, algorithm="auto", workers=3, parallel_mode="inline"
        )
        assert got.normalized() == want
        assert len(calls) == 1  # planned once, not once per layer or shard

    def test_unknown_mode_rejected(self, line3):
        query, db = line3
        with pytest.raises(QueryError, match="mode"):
            temporal_join(
                query, db, algorithm="timefirst", workers=2,
                parallel_mode="threads",
            )

    def test_invalid_workers_rejected(self, line3):
        query, db = line3
        with pytest.raises(QueryError, match="workers"):
            temporal_join(query, db, algorithm="timefirst", workers=-1)

    def test_invalid_tau_rejected_before_execution(self, line3):
        query, db = line3
        with pytest.raises(QueryError, match="finite"):
            temporal_join(
                query, db, tau=float("inf"), algorithm="timefirst", workers=2
            )

    def test_unknown_algorithm_rejected(self, line3):
        query, db = line3
        with pytest.raises(QueryError, match="unknown algorithm"):
            temporal_join(
                query, db, algorithm="quantum", workers=2,
                parallel_mode="inline",
            )

    def test_algorithm_kwargs_forwarded_to_shards(self, line3):
        query, db = line3
        want = temporal_join(
            query, db, algorithm="baseline", order=("R3", "R2", "R1")
        ).normalized()
        got = temporal_join(
            query, db, algorithm="baseline", workers=3,
            parallel_mode="inline", order=("R3", "R2", "R1"),
        )
        assert got.normalized() == want


class TestTelemetry:
    def test_parallel_counters(self, line3):
        query, db = line3
        stats = ExecutionStats()
        got = temporal_join(
            query, db, algorithm="timefirst", workers=3,
            parallel_mode="inline", stats=stats,
        )
        shards = stats["parallel.shards"]
        assert 1 < shards <= 3
        assert stats["parallel.workers"] == shards
        assert stats["parallel.replicated"] >= 0
        assert stats["parallel.shard_input.count"] == shards
        assert stats["parallel.shard_results.count"] == shards
        # Exactly-once: per-shard owned results sum to the merged total,
        # with no dedup step in between.
        assert stats["parallel.shard_results.total"] == len(got)
        assert stats["parallel.skew_pct_peak"] >= 100
        for i in range(shards):
            assert f"phase.parallel.shard{i:02d}" in stats.timers
        assert "phase.parallel.workers" in stats.timers

    def test_replication_counts_boundary_copies(self):
        query = JoinQuery.star(2)
        db = {
            "R1": TemporalRelation(
                "R1", ("x1", "y"),
                [(("a", "h"), (0, 100)), (("b", "h"), (0, 10))],
            ),
            "R2": TemporalRelation(
                "R2", ("x2", "y"), [(("u", "h"), (90, 100))]
            ),
        }
        stats = ExecutionStats()
        sharded_join(
            query, db, 0, "timefirst", {}, TimePartition((50,)), "inline",
            stats=stats,
        )
        assert stats["parallel.shards"] == 2
        assert stats["parallel.replicated"] == 1  # only ("a","h") straddles

    def test_algorithm_counters_summed_across_shards(self, line3):
        query, db = line3
        stats = ExecutionStats()
        temporal_join(
            query, db, algorithm="timefirst", workers=2,
            parallel_mode="inline", stats=stats,
        )
        # Each shard sweeps 2 * (its tuples) events; replication makes the
        # sum at least 2N.
        n = query.input_size(db)
        assert stats["sweep.events"] >= 2 * n

    def test_no_stats_no_telemetry_overhead(self, line3):
        query, db = line3
        got = temporal_join(
            query, db, algorithm="timefirst", workers=2, parallel_mode="inline"
        )
        assert len(got) > 0  # and no exception from the stats-free path


class TestRegistryRouting:
    def test_workers_kwarg_routes_to_parallel(self, line3):
        query, db = line3
        stats = ExecutionStats()
        got = temporal_join(
            query, db, algorithm="timefirst", workers=3,
            parallel_mode="inline", stats=stats,
        )
        assert stats.get("parallel.shards", 0) > 1
        want = temporal_join(query, db, algorithm="timefirst")
        assert got.normalized() == want.normalized()

    def test_workers_none_and_one_stay_serial(self, line3):
        query, db = line3
        for workers in (None, 1):
            stats = ExecutionStats()
            temporal_join(
                query, db, algorithm="timefirst", workers=workers, stats=stats
            )
            assert "parallel.shards" not in stats

    def test_workers_zero_rejected(self, line3):
        query, db = line3
        with pytest.raises(QueryError, match="workers"):
            temporal_join(query, db, algorithm="timefirst", workers=0)

    def test_auto_with_workers(self, line3):
        query, db = line3
        want = temporal_join(query, db).normalized()
        got = temporal_join(query, db, workers=2, parallel_mode="inline")
        assert got.normalized() == want

    def test_explain_analyze_with_workers(self, line3):
        query, db = line3
        report = explain_analyze(
            query, db, algorithm="timefirst", workers=2, parallel_mode="inline"
        )
        assert report.stats.get("parallel.shards") == 2
        rendered = report.render()
        assert "parallel.shards" in rendered
        assert "phase.parallel.shard00" in rendered

    def test_strip_keeps_executor_kwargs(self):
        from repro.algorithms.joinfirst import joinfirst_join

        kwargs = {"workers": 4, "parallel_mode": "inline", "order": ("R1",)}
        stripped = strip_unsupported_kwargs(joinfirst_join, kwargs)
        assert stripped == {"workers": 4, "parallel_mode": "inline"}
        # "prepared" joined the dispatch-layer kwargs with the
        # prepared-columns engine, "predicate" with the Allen-predicate
        # dispatch: algorithms without those paths must have them
        # stripped rather than see them and error.
        assert EXECUTOR_KWARGS == {
            "workers", "parallel_mode", "prepared", "predicate",
        }
