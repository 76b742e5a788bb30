"""Parallel execution must be indistinguishable from serial execution.

The contract under test: for every registered algorithm and every
workload, ``temporal_join(..., workers=p, parallel_mode="inline")``
(for one shard, the sharded path run directly) returns exactly the
serial result set for every shard count — including results whose
intervals straddle shard boundaries, τ > 0, and degenerate partitions.
The merge path performs no deduplication, so any ownership bug shows up
as a duplicated or missing row, not as a silently-repaired result.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.algorithms.registry import _resolve, temporal_join
from repro.core.errors import ReproError
from repro.core.interval import Interval
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation
from repro.obs import ExecutionStats
from repro.parallel.executor import sharded_join
from repro.parallel.partition import TimePartition, partition_timeline
from repro.workloads.synthetic import SyntheticConfig, generate

from conftest import random_database

ALL_ALGORITHMS = [
    "timefirst", "timefirst-cm", "hybrid", "hybrid-interval",
    "baseline", "joinfirst", "naive",
]

SHARD_COUNTS = (1, 2, 3, 7)


def assert_parallel_matches_serial(query, db, algorithms, shard_counts, taus=(0,)):
    """Serial vs inline-parallel equality over the full cross product."""
    for tau in taus:
        for algorithm in algorithms:
            try:
                want = temporal_join(query, db, tau=tau, algorithm=algorithm)
            except ReproError:
                continue  # structurally inapplicable to this query
            want_n = want.normalized()
            for p in shard_counts:
                if p == 1:
                    # workers=1 runs serially; drive the one-shard
                    # sharded path (ownership filter, shard tasks) itself.
                    name = _resolve(query, algorithm, {})[0]
                    got = sharded_join(
                        query, db, tau, name, {},
                        partition_timeline(db, 1), "inline",
                    )
                else:
                    got = temporal_join(
                        query, db, tau=tau, algorithm=algorithm,
                        workers=p, parallel_mode="inline",
                    )
                assert got.normalized() == want_n, (
                    f"{algorithm} diverges from serial at workers={p}, "
                    f"tau={tau} on {query!r}"
                )


class TestSyntheticWorkload:
    """The paper's synthetic workload (huge intermediates, tiny results)."""

    @given(
        family=st.sampled_from(["line3", "star3", "triangle"]),
        n_dangling=st.integers(min_value=5, max_value=40),
        n_results=st.integers(min_value=0, max_value=10),
        seed=st.integers(min_value=0, max_value=2**16),
        algorithm=st.sampled_from(["timefirst", "hybrid", "baseline"]),
        tau=st.sampled_from([0, 250]),
    )
    @settings(max_examples=25, deadline=None)
    def test_sharded_equals_serial(
        self, family, n_dangling, n_results, seed, algorithm, tau
    ):
        query = {
            "line3": JoinQuery.line(3),
            "star3": JoinQuery.star(3),
            "triangle": JoinQuery.triangle(),
        }[family]
        config = SyntheticConfig(
            n_dangling=n_dangling, n_results=n_results, seed=seed
        )
        db = generate(query, config)
        assert_parallel_matches_serial(
            query, db, [algorithm], SHARD_COUNTS, taus=(tau,)
        )

    def test_all_algorithms_synthetic_line3(self):
        query = JoinQuery.line(3)
        db = generate(query, SyntheticConfig(n_dangling=25, n_results=8))
        assert_parallel_matches_serial(
            query, db, ALL_ALGORITHMS, (1, 2, 4), taus=(0, 300)
        )


class TestHierarchicalWorkload:
    def test_all_algorithms_hier(self):
        query = JoinQuery.hier()
        db = random_database(query, random.Random(7), n=14, domain=3)
        assert_parallel_matches_serial(
            query, db, ALL_ALGORITHMS, (1, 2, 4), taus=(0, 5)
        )

    def test_r_hierarchical_reduction_per_shard(self):
        # Merely r-hierarchical: triggers the footnote-2 instance
        # reduction inside every shard independently.
        query = JoinQuery({"R1": ("a", "b"), "R2": ("a", "b", "c")})
        db = random_database(query, random.Random(3), n=15, domain=3)
        assert_parallel_matches_serial(
            query, db, ["timefirst", "timefirst-cm"], SHARD_COUNTS, taus=(0, 4)
        )


class TestCyclicWorkload:
    def test_all_algorithms_triangle(self):
        query = JoinQuery.triangle()
        db = random_database(query, random.Random(11), n=15, domain=3)
        assert_parallel_matches_serial(
            query, db, ALL_ALGORITHMS, (1, 2, 4), taus=(0, 6)
        )

    def test_cycle4(self):
        query = JoinQuery.cycle(4)
        db = random_database(query, random.Random(13), n=12, domain=3)
        assert_parallel_matches_serial(
            query, db, ["timefirst", "hybrid", "auto"], (1, 2, 4)
        )


class TestBoundaryStraddling:
    """Results whose intervals cross shard cuts must appear exactly once."""

    def _db(self):
        q = JoinQuery.star(2)
        return q, {
            "R1": TemporalRelation(
                "R1", ("x1", "y"),
                [
                    (("a", "h"), (0, 100)),     # spans every shard
                    (("b", "h"), (0, 49)),      # ends left of the cut
                    (("c", "h"), (50, 60)),     # starts exactly at a cut
                    (("d", "h"), (49, 50)),     # ends exactly at a cut
                ],
            ),
            "R2": TemporalRelation(
                "R2", ("x2", "y"),
                [
                    (("u", "h"), (10, 90)),
                    (("v", "h"), (50, 50)),     # instant exactly at the cut
                    (("w", "h"), (0, 100)),
                ],
            ),
        }

    def test_explicit_cuts_through_result_intervals(self):
        q, db = self._db()
        want = temporal_join(q, db, algorithm="timefirst").normalized()
        for cuts in [(50,), (25, 50, 75), (49, 50, 51), (1, 99)]:
            got = sharded_join(
                q, db, 0, "timefirst", {}, TimePartition(cuts), "inline"
            )
            assert got.normalized() == want, f"cuts={cuts}"

    def test_result_ending_exactly_on_cut_owned_by_right_shard(self):
        # Intersection [10, 50] ends exactly at the cut: the ownership
        # rule assigns the half-open range [50, inf) to shard 1, so the
        # result must come from shard 1 and only shard 1.
        q = JoinQuery.star(2)
        db = {
            "R1": TemporalRelation("R1", ("x1", "y"), [(("a", "h"), (10, 50))]),
            "R2": TemporalRelation("R2", ("x2", "y"), [(("u", "h"), (0, 100))]),
        }
        stats = ExecutionStats()
        got = sharded_join(
            q, db, 0, "timefirst", {}, TimePartition((50,)), "inline",
            stats=stats,
        )
        assert got.normalized() == [(("a", "h", "u"), Interval(10, 50))]
        assert stats.get("parallel.shard_results.total") == 1

    def test_unbounded_result_owned_by_last_shard(self):
        q = JoinQuery.star(2)
        db = {
            "R1": TemporalRelation(
                "R1", ("x1", "y"), [(("a", "h"), Interval.always())]
            ),
            "R2": TemporalRelation(
                "R2", ("x2", "y"),
                [(("u", "h"), Interval.always()), (("v", "h"), (0, 10))],
            ),
        }
        want = temporal_join(q, db, algorithm="timefirst").normalized()
        got = sharded_join(
            q, db, 0, "timefirst", {}, TimePartition((3, 7)), "inline"
        )
        assert got.normalized() == want
        assert len(got) == 2

    def test_tau_with_cut_inside_shrunk_interval(self):
        q = JoinQuery.star(2)
        db = {
            "R1": TemporalRelation("R1", ("x1", "y"), [(("a", "h"), (0, 40))]),
            "R2": TemporalRelation("R2", ("x2", "y"), [(("u", "h"), (20, 80))]),
        }
        # Intersection [20, 40], durability 20.
        for tau in (0, 10, 20, 21):
            want = temporal_join(q, db, tau=tau, algorithm="timefirst").normalized()
            got = sharded_join(
                q, db, tau, "timefirst", {}, TimePartition((30,)), "inline"
            )
            assert got.normalized() == want, f"tau={tau}"


class TestProcessMode:
    """Real multiprocessing (spawn) — kept small: interpreters are slow."""

    @pytest.mark.parametrize("algorithm", ["timefirst", "hybrid"])
    def test_process_pool_matches_serial(self, algorithm):
        query = JoinQuery.line(3)
        db = generate(query, SyntheticConfig(n_dangling=30, n_results=8))
        want = temporal_join(query, db, algorithm=algorithm).normalized()
        stats = ExecutionStats()
        got = temporal_join(
            query, db, algorithm=algorithm, workers=2,
            parallel_mode="process", stats=stats,
        )
        assert got.normalized() == want
        assert stats.get("parallel.shards") == 2
        assert stats.get("parallel.workers") == 2

    def test_registry_process_route(self):
        query = JoinQuery.star(3)
        db = generate(query, SyntheticConfig(n_dangling=20, n_results=5))
        want = temporal_join(query, db, algorithm="timefirst").normalized()
        got = temporal_join(query, db, algorithm="timefirst", workers=2)
        assert got.normalized() == want
