"""Substrate dispatch: one rule, reported truthfully.

``repro.kernels.engine.runs_on_columns`` is the only substrate rule:
stock ``timefirst`` without algorithm kwargs sweeps on columns, every
other call runs on object rows. Two things are pinned here:

* ``explain_analyze``'s reported ``engine`` is the engine that ran — it
  is computed for the *post-fallback* algorithm, so under
  ``algorithm="auto"`` and under forced algorithms alike it must agree
  with the presence/absence of the kernel's own counters
  (``kernel.sort_calls``);
* a registry override of ``timefirst`` always runs: the kernel fast
  path accelerates the stock implementation only and must never bypass
  a replaced entry.
"""

import pytest

from repro.algorithms import registry
from repro.algorithms.registry import explain_analyze, temporal_join
from repro.core.query import JoinQuery
from repro.obs import ExecutionStats
from repro.workloads.synthetic import SyntheticConfig, generate


@pytest.fixture
def line3():
    query = JoinQuery.line(3)
    db = generate(query, SyntheticConfig(n_dangling=25, n_results=8))
    return query, db


@pytest.fixture
def star3():
    query = JoinQuery.star(3)
    db = generate(query, SyntheticConfig(n_dangling=25, n_results=8))
    return query, db


class TestRegistryOverride:
    def _wrap_timefirst(self, monkeypatch):
        from repro.algorithms.timefirst import timefirst_join

        registry._ensure_loaded()
        calls = []

        def wrapped(query, database, tau=0, stats=None, **kwargs):
            calls.append(1)
            return timefirst_join(query, database, tau=tau, stats=stats, **kwargs)

        monkeypatch.setitem(registry._REGISTRY, "timefirst", wrapped)
        return calls

    def test_override_runs(self, star3, monkeypatch):
        query, db = star3
        want = temporal_join(query, db, algorithm="timefirst").normalized()
        calls = self._wrap_timefirst(monkeypatch)
        stats = ExecutionStats()
        got = temporal_join(query, db, algorithm="timefirst", stats=stats)
        assert calls  # the override ran — the kernel must not bypass it
        assert "kernel.sort_calls" not in stats
        assert got.normalized() == want

    def test_override_runs_sharded_and_reported(self, star3, monkeypatch):
        query, db = star3
        calls = self._wrap_timefirst(monkeypatch)
        temporal_join(
            query, db, algorithm="timefirst", workers=2,
            parallel_mode="inline",
        )
        assert calls  # every shard ran the override
        report = explain_analyze(query, db, algorithm="timefirst")
        assert report.engine == "object"
        assert "kernel.sort_calls" not in report.stats


class TestExplainAnalyzeEngine:
    """The reported engine is the engine that ran, never a guess."""

    def _engine_agrees_with_counters(self, report):
        ran_kernel = "kernel.sort_calls" in report.stats
        assert (report.engine == "kernel") == ran_kernel

    def test_auto_on_hierarchical_query(self, star3):
        # Planner picks timefirst -> kernel runs -> report says kernel.
        query, db = star3
        report = explain_analyze(query, db, algorithm="auto")
        assert report.algorithm == "timefirst"
        assert report.engine == "kernel"
        self._engine_agrees_with_counters(report)

    def test_auto_resolving_to_non_kernel_algorithm(self, line3):
        # Planner routes line3 elsewhere (hybrid-interval); the report
        # must say "object".
        query, db = line3
        report = explain_analyze(query, db, algorithm="auto")
        assert report.algorithm != "timefirst"
        assert report.engine == "object"
        self._engine_agrees_with_counters(report)

    def test_honored_kernel_request_reported(self, star3):
        # Forcing stock timefirst is the kernel request.
        query, db = star3
        report = explain_analyze(query, db, algorithm="timefirst")
        assert report.engine == "kernel"
        assert "engine:     kernel" in report.render()
        self._engine_agrees_with_counters(report)

    def test_forced_object_reported(self, star3):
        from repro.algorithms.hierarchical import HierarchicalState

        query, db = star3
        for report in (
            explain_analyze(query, db, algorithm="baseline"),
            explain_analyze(
                query, db, algorithm="timefirst",
                state_factory=lambda q, _db: HierarchicalState(q),
            ),
        ):
            assert report.engine == "object"
            self._engine_agrees_with_counters(report)

    @pytest.mark.parametrize("family", ["line3", "star3", "triangle"])
    def test_engine_report_matches_execution_across_families(self, family):
        query = {
            "line3": JoinQuery.line(3),
            "star3": JoinQuery.star(3),
            "triangle": JoinQuery.triangle(),
        }[family]
        db = generate(query, SyntheticConfig(n_dangling=15, n_results=5))
        for algorithm in ("auto", "timefirst", "hybrid", "baseline"):
            report = explain_analyze(query, db, algorithm=algorithm)
            self._engine_agrees_with_counters(report)
            sharded = explain_analyze(
                query, db, algorithm=algorithm, workers=2,
                parallel_mode="inline",
            )
            assert sharded.engine == report.engine
            self._engine_agrees_with_counters(sharded)
