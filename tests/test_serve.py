"""Unit tests for the serving layer (ingest path, handles, registry)."""

import threading
import time

import pytest

from repro.algorithms.registry import temporal_join
from repro.algorithms.online import OnlineTemporalJoin
from repro.core.errors import QueryError, SchemaError
from repro.core.interval import Interval
from repro.core.planner import plan
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation
from repro.serve import (
    Backpressure,
    StandingQuery,
    TemporalJoinService,
)

from conftest import random_database
import random


def star2():
    return JoinQuery.star(2)


class TestStreamingBasics:
    def test_append_then_watermark_emits(self):
        svc = TemporalJoinService()
        pairs = svc.register(star2(), name="pairs")
        assert svc.append("R1", (1, "h"), (0, 10)) == 0
        assert svc.append("R2", (2, "h"), (2, 5)) == 0
        assert svc.advance_to(6) == 1
        [emission] = pairs.drain()
        assert emission.values == (1, "h", 2)
        assert emission.interval.lo == 2 and emission.interval.hi == 5
        # Triggered by the declared watermark at t=6; the result was
        # finalizable at its right endpoint 5.
        assert emission.at == 6 and emission.lag == 1

    def test_arrival_triggers_emission_at_its_start(self):
        svc = TemporalJoinService()
        pairs = svc.register(star2(), name="pairs")
        svc.append("R1", (1, "h"), (0, 10))
        svc.append("R2", (2, "h"), (2, 5))
        # An arrival starting past hi=5 proves the intersection settled.
        assert svc.append("R1", (9, "h"), (7, 8)) == 1
        [emission] = pairs.drain()
        assert emission.at == 7 and emission.lag == 2

    def test_finish_flushes_and_closes(self):
        svc = TemporalJoinService()
        pairs = svc.register(star2(), name="pairs")
        svc.append("R1", (1, "h"), (0, 10))
        svc.append("R2", (2, "h"), (2, 5))
        assert svc.finish() == 1
        [emission] = pairs.drain()
        assert emission.lag == 0  # end-of-stream flush: zero by construction
        assert pairs.closed
        with pytest.raises(QueryError):
            svc.append("R1", (3, "h"), (20, 30))
        with pytest.raises(QueryError):
            svc.advance_to(50)
        assert svc.finish() == 0  # idempotent

    def test_iteration_ends_at_close(self):
        svc = TemporalJoinService()
        pairs = svc.register(star2(), name="pairs")
        svc.append("R1", (1, "h"), (0, 10))
        svc.append("R2", (2, "h"), (2, 5))
        svc.finish()
        assert [e.values for e in pairs] == [(1, "h", 2)]

    def test_poll_timeout_zero_never_blocks(self):
        svc = TemporalJoinService()
        pairs = svc.register(star2(), name="pairs")
        assert pairs.poll() is None
        svc.append("R1", (1, "h"), (0, 10))
        svc.append("R2", (2, "h"), (2, 5))
        svc.finish()
        assert pairs.poll().values == (1, "h", 2)
        assert pairs.poll() is None

    def test_subscribe_bypasses_buffer(self):
        svc = TemporalJoinService()
        pairs = svc.register(star2(), name="pairs", buffer_size=1)
        seen = []
        pairs.subscribe(seen.append)
        svc.append("R1", (1, "h"), (0, 10))
        svc.append("R2", (3, "h"), (1, 4))
        svc.append("R2", (2, "h"), (2, 5))
        svc.finish()
        assert {e.values for e in seen} == {(1, "h", 2), (1, "h", 3)}
        assert pairs.pending == 0  # push mode: nothing buffered

    def test_strict_ordering_enforced_at_broker(self):
        svc = TemporalJoinService()
        svc.register(star2(), name="pairs")
        svc.append("R1", (1, "h"), (5, 10))
        with pytest.raises(QueryError, match="out-of-order"):
            svc.append("R2", (2, "h"), (3, 9))

    def test_non_strict_clamps_and_notes(self):
        svc = TemporalJoinService(strict=False)
        svc.register(star2(), name="pairs")
        svc.append("R1", (1, "h"), (5, 10))
        svc.append("R2", (2, "h"), (3, 9))
        stats = svc.telemetry()
        assert stats.get("serve.clamped") == 1
        assert "clamped" in stats.notes["serve.clamp_reason"]

    def test_watermark_regression_is_noop(self):
        svc = TemporalJoinService()
        svc.register(star2(), name="pairs")
        svc.advance_to(10)
        assert svc.advance_to(4) == 0
        assert svc.watermark == 10
        assert svc.telemetry().get("serve.watermark_regressions") == 1

    def test_unmatched_append_is_counted_not_fatal(self):
        svc = TemporalJoinService()
        svc.register(star2(), name="pairs")
        svc.append("S9", ("x",), (0, 1))
        assert svc.telemetry().get("serve.unmatched_appends") == 1

    def test_arity_mismatch_rejected(self):
        svc = TemporalJoinService()
        svc.register(star2(), name="pairs")
        with pytest.raises(QueryError, match="arity"):
            svc.append("R1", (1, 2, 3), (0, 1))

    def test_schema_conflict_rejected(self):
        svc = TemporalJoinService()
        svc.register(star2(), name="pairs")
        conflicting = JoinQuery({"R1": ("a", "b", "c"), "Z": ("c", "d")})
        with pytest.raises(QueryError, match="already carries"):
            svc.register(conflicting, name="bad")


class TestBackpressure:
    def _flood(self, policy, buffer_size, **kwargs):
        svc = TemporalJoinService()
        handle = svc.register(
            star2(), name="q", policy=policy, buffer_size=buffer_size, **kwargs
        )
        svc.append("R1", (1, "h"), (0, 100))
        for k in range(5):
            svc.append("R2", (k, "h"), (k, k + 1))
        svc.finish()
        return svc, handle

    def test_unknown_policy_rejected(self):
        svc = TemporalJoinService()
        with pytest.raises(QueryError, match="backpressure"):
            svc.register(star2(), policy="warn")

    def test_drop_oldest_counts_and_snapshot_survives(self):
        svc, handle = self._flood(Backpressure.DROP_OLDEST, buffer_size=2)
        assert handle.pending == 2
        stats = svc.telemetry()
        assert stats.get("serve.dropped") == 3
        assert "drop-oldest" in stats.notes["serve.backpressure"]
        # The consistent snapshot is unaffected by buffer losses.
        assert len(handle.snapshot()) == 5

    def test_error_policy_raises_on_overflow(self):
        with pytest.raises(QueryError, match="overflow"):
            self._flood(Backpressure.ERROR, buffer_size=2)

    def test_block_policy_times_out_without_consumer(self):
        with pytest.raises(QueryError, match="timeout"):
            self._flood(Backpressure.BLOCK, buffer_size=2, block_timeout=0.05)

    def test_error_on_one_handle_still_feeds_siblings(self):
        # Two handles on one template: "a" overflows and raises, "b" must
        # still receive every row the shared operator emitted.
        svc = TemporalJoinService()
        a = svc.register(
            star2(), name="a", policy=Backpressure.ERROR, buffer_size=1
        )
        b = svc.register(
            star2(), name="b", policy=Backpressure.DROP_OLDEST, buffer_size=100
        )
        arrivals = [
            ("R1", (1, "h"), (0, 100)),
            ("R2", (2, "h"), (1, 2)),
            ("R2", (3, "h"), (1, 3)),
            ("R1", (9, "z"), (50, 60)),
        ]
        for relation, values, interval in arrivals[:-1]:
            svc.append(relation, values, interval)
        with pytest.raises(QueryError, match="overflow"):
            svc.append(*arrivals[-1])
        svc.finish()
        db = {
            "R1": TemporalRelation(
                "R1", ("x1", "y"), [(v, iv) for r, v, iv in arrivals if r == "R1"]
            ),
            "R2": TemporalRelation(
                "R2", ("x2", "y"), [(v, iv) for r, v, iv in arrivals if r == "R2"]
            ),
        }
        offline = temporal_join(star2(), db).normalized()
        assert len(offline) == 2
        assert b.snapshot().results.normalized() == offline
        assert b.pending == 2
        assert a.snapshot().results.normalized() == offline

    def test_block_timeouts_stall_once_and_feed_every_handle(self):
        # Two blocking handles with no consumer: the call raises after
        # one block_timeout, not one per handle, and both snapshots hold
        # every row the shared operator emitted.
        timeout = 1.0
        svc = TemporalJoinService()
        handles = [
            svc.register(
                star2(), name=name, policy=Backpressure.BLOCK,
                buffer_size=1, block_timeout=timeout,
            )
            for name in ("a", "b")
        ]
        arrivals = [
            ("R1", (1, "h"), (0, 100)),
            ("R2", (2, "h"), (1, 2)),
            ("R2", (3, "h"), (1, 3)),
            ("R1", (9, "z"), (50, 60)),
        ]
        for relation, values, interval in arrivals[:-1]:
            svc.append(relation, values, interval)
        start = time.perf_counter()
        with pytest.raises(QueryError, match="timeout"):
            svc.append(*arrivals[-1])
        assert time.perf_counter() - start < 1.8 * timeout
        svc.finish()
        db = {
            "R1": TemporalRelation(
                "R1", ("x1", "y"), [(v, iv) for r, v, iv in arrivals if r == "R1"]
            ),
            "R2": TemporalRelation(
                "R2", ("x2", "y"), [(v, iv) for r, v, iv in arrivals if r == "R2"]
            ),
        }
        offline = temporal_join(star2(), db).normalized()
        assert len(offline) == 2
        for handle in handles:
            assert handle.snapshot().results.normalized() == offline
            assert handle.pending == 1

    def test_block_policy_waits_for_consumer(self):
        svc = TemporalJoinService()
        handle = svc.register(
            star2(), name="q", policy=Backpressure.BLOCK,
            buffer_size=2, block_timeout=5.0,
        )
        consumed = []

        def consume():
            while True:
                emission = handle.poll(timeout=None)
                if emission is None:
                    return
                consumed.append(emission)

        thread = threading.Thread(target=consume)
        thread.start()
        try:
            svc.append("R1", (1, "h"), (0, 100))
            for k in range(20):
                svc.append("R2", (k, "h"), (k, k + 1))
            svc.finish()
        finally:
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(consumed) == 20
        assert svc.telemetry().get("serve.dropped") == 0

    def test_buffer_size_validated(self):
        with pytest.raises(QueryError, match="buffer_size"):
            StandingQuery("q", star2(), 0, buffer_size=0)


class TestSnapshots:
    def test_snapshot_carries_watermark(self):
        svc = TemporalJoinService()
        handle = svc.register(star2(), name="q")
        svc.append("R1", (1, "h"), (0, 10))
        svc.append("R2", (2, "h"), (2, 5))
        svc.advance_to(6)
        snapshot = handle.snapshot()
        assert snapshot.at == 6
        assert len(snapshot) == 1
        svc.finish()
        assert handle.snapshot().at == float("inf")

    def test_snapshot_isolated_from_later_results(self):
        svc = TemporalJoinService()
        handle = svc.register(star2(), name="q")
        svc.append("R1", (1, "h"), (0, 100))
        svc.append("R2", (2, "h"), (2, 5))
        svc.advance_to(6)
        before = handle.snapshot()
        svc.append("R2", (3, "h"), (7, 9))
        svc.finish()
        assert len(before) == 1  # a copy, not a live view
        assert len(handle.snapshot()) == 2

    def test_retention_disabled_rejects_snapshot(self):
        svc = TemporalJoinService()
        handle = svc.register(star2(), name="q", retain_results=False)
        with pytest.raises(QueryError, match="retain_results"):
            handle.snapshot()


class TestTemplateDedup:
    def test_identical_templates_share_one_operator(self):
        svc = TemporalJoinService()
        a = svc.register(star2(), name="a")
        b = svc.register(star2(), name="b")
        assert len(svc._evaluations) == 1
        svc.append("R1", (1, "h"), (0, 10))
        svc.append("R2", (2, "h"), (2, 5))
        svc.finish()
        assert [e.values for e in a.drain()] == [e.values for e in b.drain()]
        stats = svc.telemetry()
        assert stats.get("serve.template_dedup") == 1
        # One operator: the sweep ran once for both handles.
        assert stats.get("sweep.inserts") == 2

    def test_attr_order_variant_gets_projection(self):
        query = star2()
        variant = JoinQuery(
            {name: query.edge(name) for name in query.edge_names},
            attr_order=tuple(reversed(query.attrs)),
        )
        svc = TemporalJoinService()
        a = svc.register(query, name="canon")
        b = svc.register(variant, name="reversed")
        assert len(svc._evaluations) == 1
        svc.append("R1", (1, "h"), (0, 10))
        svc.append("R2", (2, "h"), (2, 5))
        svc.finish()
        assert [e.values for e in a.drain()] == [(1, "h", 2)]
        assert [e.values for e in b.drain()] == [(2, "h", 1)]

    def test_different_tau_does_not_dedup(self):
        svc = TemporalJoinService()
        svc.register(star2(), name="t0", tau=0)
        svc.register(star2(), name="t5", tau=5)
        assert len(svc._evaluations) == 2
        assert svc.telemetry().get("serve.template_dedup") == 0

    def test_tau_shrink_drops_short_tuples(self):
        svc = TemporalJoinService()
        handle = svc.register(star2(), name="q", tau=4)
        svc.append("R1", (1, "h"), (0, 10))
        svc.append("R2", (2, "h"), (2, 3))  # shorter than τ: never joins
        svc.finish()
        assert len(handle.snapshot()) == 0
        assert svc.telemetry().get("serve.shrink_dropped") == 1


class TestRegistration:
    def test_duplicate_name_rejected(self):
        svc = TemporalJoinService()
        svc.register(star2(), name="q")
        with pytest.raises(QueryError, match="already registered"):
            svc.register(star2(), name="q")

    def test_auto_names_are_unique(self):
        svc = TemporalJoinService()
        names = {svc.register(star2()).name for _ in range(3)}
        assert len(names) == 3

    def test_deregister_last_handle_kills_evaluation(self):
        svc = TemporalJoinService()
        a = svc.register(star2(), name="a")
        svc.register(star2(), name="b")
        svc.deregister(a)
        assert len(svc._evaluations) == 1
        svc.deregister("b")
        assert len(svc._evaluations) == 0
        assert a.closed
        with pytest.raises(QueryError, match="not registered"):
            svc.deregister("b")
        # the schema registry is released with the evaluation
        svc.register(JoinQuery({"R1": ("z",)}), name="c")

    def test_mid_stream_join_of_existing_template_shares_live_state(self):
        svc = TemporalJoinService()
        early = svc.register(star2(), name="early")
        svc.append("R1", (1, "h"), (0, 100))
        svc.append("R2", (2, "h"), (2, 5))
        svc.advance_to(6)  # finalizes (1,h,2) — delivered to early only
        late = svc.register(star2(), name="late")
        assert len(svc._evaluations) == 1  # joined the live operator
        svc.append("R2", (3, "h"), (7, 9))
        svc.finish()
        assert {e.values for e in early.drain()} == {(1, "h", 2), (1, "h", 3)}
        # the late registrant missed the already-delivered result but
        # shares the operator's live state from its registration on
        assert {e.values for e in late.drain()} == {(1, "h", 3)}

    def test_mid_stream_new_template_starts_at_the_watermark(self):
        svc = TemporalJoinService()
        svc.register(star2(), name="early")
        svc.append("R1", (1, "h"), (0, 100))
        # A *distinct* template (different τ) registered mid-stream gets
        # a fresh operator advanced to the current watermark: it never
        # sees pre-registration arrivals.
        late = svc.register(star2(), name="late", tau=2)
        assert len(svc._evaluations) == 2
        svc.append("R2", (2, "h"), (2, 9))
        svc.finish()
        assert {e.values for e in late.drain()} == set()

    def test_plan_for_returns_cached_plan(self):
        svc = TemporalJoinService()
        handle = svc.register(star2(), name="q")
        assert svc.plan_for(handle) == svc.plan_for("q") == plan(handle.query)
        with pytest.raises(QueryError, match="not registered"):
            svc.plan_for("nope")

    def test_invalid_tau_rejected(self):
        svc = TemporalJoinService()
        with pytest.raises(QueryError):
            svc.register(star2(), tau=-1)


class TestBulkIngest:
    def test_bulk_ingest_continues_a_live_stream(self):
        rng = random.Random(3)
        query = star2()
        db = random_database(query, rng, n=8, domain=3, time_span=20)
        svc = TemporalJoinService()
        handle = svc.register(query, name="q")
        # A bulk pass after live appends is one more stretch of the same
        # stream: the early tuple joins the stored ones.
        early = ((99, 0), Interval(-5, 100))
        svc.append("R1", *early)
        svc.ingest_database(db)
        r1 = db["R1"]
        want = temporal_join(
            query,
            {"R1": TemporalRelation("R1", r1.attrs, r1.rows + [early]), "R2": db["R2"]},
        )
        assert any(values[0] == 99 for values, _ in want)
        assert handle.snapshot().results.normalized() == want.normalized()

    def test_unfinished_live_ingest_can_continue(self):
        rng = random.Random(5)
        query = star2()
        db = random_database(query, rng, n=8, domain=3, time_span=20)
        svc = TemporalJoinService()
        handle = svc.register(query, name="q")
        svc.ingest_database(db, finish=False)
        assert not svc.closed
        svc.advance_to(10_000)
        svc.finish()
        want = temporal_join(query, db)
        assert handle.snapshot().results.normalized() == want.normalized()

    @pytest.mark.parametrize("n_handles", [1, 2], ids=["one-handle", "shared-template"])
    def test_bulk_ingest_matches_offline(self, n_handles):
        rng = random.Random(11)
        query = star2()
        db = random_database(query, rng, n=20, domain=3, time_span=30)
        svc = TemporalJoinService()
        handles = [svc.register(query, name=f"q{i}") for i in range(n_handles)]
        delivered = svc.ingest_database(db)
        assert svc.closed
        want = temporal_join(query, db)
        for handle in handles:
            assert handle.snapshot().results.normalized() == want.normalized()
        assert delivered == len(want) * n_handles
        stats = svc.telemetry()
        n_tuples = sum(len(r) for r in db.values())
        assert stats.get("serve.ingest_passes") == 1
        assert stats.get("serve.appends") == n_tuples
        # Handles on one template share one operator: each tuple is
        # inserted once, whatever the number of handles.
        assert stats.get("serve.fanout_inserts") == n_tuples

    def test_ingest_after_finish_rejected(self):
        svc = TemporalJoinService()
        svc.register(star2(), name="q")
        svc.finish()
        with pytest.raises(QueryError, match="finish"):
            svc.ingest_database({})


class TestMalformedInput:
    """Bad input is rejected before it changes any state."""

    @pytest.mark.parametrize("bad", [float("nan"), "5", None])
    def test_bad_watermark_rejected_and_stream_continues(self, bad):
        svc = TemporalJoinService()
        pairs = svc.register(star2(), name="pairs")
        svc.append("R1", (1, "h"), (0, 10))
        with pytest.raises(QueryError, match="watermark"):
            svc.advance_to(bad)
        assert svc.watermark == 0
        assert svc.telemetry().get("serve.watermarks") == 0
        # The live tuple did not expire: a later in-order arrival joins it.
        svc.append("R2", (2, "h"), (2, 5))
        svc.advance_to(6)
        assert [e.row for e in pairs.drain()] == [((1, "h", 2), Interval(2, 5))]

    @pytest.mark.parametrize("bad", [float("nan"), "5", None])
    def test_operator_bad_watermark_rejected(self, bad):
        op = OnlineTemporalJoin(star2())
        op.insert("R1", (1, "h"), (0, 10))
        with pytest.raises(QueryError, match="watermark"):
            op.advance_to(bad)
        assert op.watermark is None
        assert op.active_count == 1
        assert op.insert("R2", (2, "h"), (2, 5)) == []
        assert op.finish() == [((1, "h", 2), Interval(2, 5))]

    def test_unhashable_append_rejected_before_effects(self):
        svc = TemporalJoinService()
        a = svc.register(star2(), name="a")
        b = svc.register(JoinQuery({"R1": ("x1", "y"), "S": ("y", "z")}), name="b")
        svc.append("R1", (1, "h"), (0, 10))
        before = dict(svc.telemetry().counters)
        with pytest.raises(SchemaError, match=r"'R1'.*unhashable"):
            svc.append("R1", (5, ["h"]), (3, 4))
        assert svc.watermark == 0
        assert dict(svc.telemetry().counters) == before
        assert [e.op.active_count for e in svc._evaluations.values()] == [1, 1]
        svc.append("R2", (2, "h"), (2, 5))
        svc.append("S", ("h", 7), (4, 6))
        svc.finish()
        assert [e.row for e in a.drain()] == [((1, "h", 2), Interval(2, 5))]
        assert [e.row for e in b.drain()] == [((1, "h", 7), Interval(4, 6))]

    def test_operator_unhashable_insert_rejected(self):
        op = OnlineTemporalJoin(star2())
        op.insert("R1", (1, "h"), (0, 10))
        with pytest.raises(SchemaError, match=r"'R2'.*unhashable"):
            op.insert("R2", ({"k": 1}, "h"), (20, 30))
        assert op.watermark is None and op.active_count == 1
        assert op.insert("R2", (2, "h"), (2, 5)) == []
        assert op.finish() == [((1, "h", 2), Interval(2, 5))]


class TestTelemetryAndReports:
    def test_slo_report_lists_every_query(self):
        svc = TemporalJoinService()
        svc.register(star2(), name="alpha")
        svc.register(JoinQuery({"S1": ("a", "b"), "S2": ("b", "c")}), name="beta")
        svc.append("R1", (1, "h"), (0, 10))
        svc.finish()
        report = svc.slo_report()
        assert "alpha" in report and "beta" in report

    def test_ingest_rate_counters(self):
        rng = random.Random(7)
        query = star2()
        db = random_database(query, rng, n=10, domain=3)
        svc = TemporalJoinService()
        svc.register(query, name="q")
        svc.ingest_database(db)
        stats = svc.telemetry()
        n = sum(len(rel) for rel in db.values())
        assert stats.get("serve.appends") == n
        assert stats.get("serve.fanout_inserts") == n
        assert stats.timers.get("phase.serve.ingest", 0) > 0
        assert stats.timers.get("phase.serve.pass", 0) > 0
