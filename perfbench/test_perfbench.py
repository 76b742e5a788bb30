"""Tests of the benchmark's own logic (no program code runs here).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import re
from multiprocessing import resource_tracker
from pathlib import Path

import pytest

import hostspeed
import metrics
import run as runner
from metrics import RequestLog
from spans import Span, SpanRecorder, covered

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Tail percentile rule
# ----------------------------------------------------------------------
def test_nearest_rank_percentile_is_a_sample():
    values = list(range(1, 101))
    assert metrics.percentile(values, 50) == 50
    assert metrics.percentile(values, 90) == 90
    assert metrics.percentile(values, 100) == 100
    assert metrics.percentile([3.0], 99) == 3.0


def test_tail_needs_ten_samples_beyond():
    assert metrics.beyond(100, 90) == 10
    assert metrics.beyond(99, 90) < 10
    assert metrics.min_samples(90) == 100
    assert metrics.min_samples(75) == 40
    assert metrics.min_samples(50) == 20
    assert metrics.min_samples(99) == 1000


@pytest.mark.parametrize("workload", sorted(SPEC["workloads"]))
def test_each_workload_holds_enough_samples_for_its_tail(workload):
    cfg = SPEC["workloads"][workload]
    assert cfg["min_requests"] >= metrics.min_samples(cfg["tail_percentile"])
    assert metrics.beyond(cfg["min_requests"], cfg["tail_percentile"]) >= 10


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def test_raising_request_fails_and_misses_every_limit():
    log = RequestLog()
    speed = hostspeed.HostSpeed(clock=FakeClock(), loop=lambda _n: 0)

    def boom():
        raise RuntimeError("no")

    seconds, factor, result = speed.around(boom)
    index, result = log.add(seconds * factor, result)
    assert result is None
    assert log.failed[index] and math.isinf(log.latencies[index])
    assert log.attempted == 1 and log.failures == 1
    assert log.percentile(1) == math.inf  # over any latency limit
    assert "RuntimeError" in log.errors[0]


def test_wrong_result_fails_after_check_and_raises_percentiles():
    log = RequestLog()
    for seconds in (0.1, 0.2, 0.3):
        log.record(seconds)
    assert log.percentile(50) == 0.2
    log.fail(0, "wrong count")
    log.fail(0, "again")  # failing twice counts once
    assert log.failures == 1
    assert sorted(log.latencies) == [0.2, 0.3, math.inf]
    assert log.percentile(50) == 0.3
    assert log.percentile(100) == math.inf
    assert log.successful_total() == pytest.approx(0.5)


def test_add_logs_an_exception_result_as_a_failure():
    log = RequestLog()
    index, result = log.add(0.25, ValueError("bad"))
    assert result is None and log.failed[index] and math.isinf(log.latencies[index])
    index, result = log.add(0.25, "rows")
    assert result == "rows" and log.latencies[index] == 0.25


# ----------------------------------------------------------------------
# Host-speed scaling
# ----------------------------------------------------------------------
REF = hostspeed.REFERENCE_S_PER_ITERATION


class ScriptedClock:
    """A clock whose consecutive readings differ by the given steps."""

    def __init__(self, steps):
        self.ticks = [0.0]
        for step in steps:
            self.ticks.append(self.ticks[-1] + step)
        self.ticks.reverse()

    def __call__(self):
        return self.ticks.pop()


def test_a_host_twice_as_slow_as_reference_halves_the_reported_time():
    n = hostspeed.ITERATIONS
    # reading before, the call, reading after: start and end of each.
    clock = ScriptedClock([2 * REF * n, 0.0, 1.0, 0.0, 2 * REF * n])
    speed = hostspeed.HostSpeed(clock=clock, loop=lambda _n: 0)
    seconds, factor, result = speed.around(lambda: "rows")
    assert result == "rows"
    assert seconds == pytest.approx(1.0)
    assert factor == pytest.approx(0.5)
    assert speed.readings == pytest.approx([2 * REF, 2 * REF])


def test_around_averages_the_readings_and_returns_a_raised_exception():
    n = hostspeed.ITERATIONS
    clock = ScriptedClock([REF * n, 0.0, 1.0, 0.0, 3 * REF * n])
    speed = hostspeed.HostSpeed(clock=clock, loop=lambda _n: 0)

    def boom():
        raise RuntimeError("no")

    _, factor, result = speed.around(boom)
    assert isinstance(result, RuntimeError)
    assert factor == pytest.approx(0.5)  # mean reading is 2 * REF


def test_segment_factors_use_the_median_of_each_segment_or_the_fallback():
    readings = [(0, REF), (5, 2 * REF), (9, 2 * REF), (12, 4 * REF)]
    factor = hostspeed.segment_factors(readings, fallback=REF / 2, segment=10)
    assert factor(3) == pytest.approx(0.5)    # segment 0: median 2 * REF
    assert factor(19) == pytest.approx(0.25)  # segment 1: one reading
    assert factor(25) == pytest.approx(2.0)   # segment 2: none, fallback


def test_calibration_loop_is_deterministic():
    assert hostspeed.calibration_loop(1000) == hostspeed.calibration_loop(1000)


# ----------------------------------------------------------------------
# Open-loop arithmetic
# ----------------------------------------------------------------------
def test_due_times_follow_the_offered_rate():
    assert metrics.due_time(10.0, 0, 4.0) == 10.0
    assert metrics.due_time(10.0, 3, 2.0) == 11.5


def test_latency_is_timed_from_the_due_time_not_the_send():
    rate = 2.0
    due = metrics.due_time(0.0, 1, rate)  # 0.5
    sent = 1.2  # the generator stalled behind a slow earlier arrival
    done = 1.3
    assert metrics.lateness(sent, due) == pytest.approx(0.7)
    assert metrics.latency_from_due(done, due) == pytest.approx(0.8)
    assert metrics.latency_from_due(done, due) > done - sent


def test_an_early_send_is_not_late():
    assert metrics.lateness(0.4, 0.5) == 0.0


def test_open_loop_replay_queues_arrivals_behind_a_stall():
    # rate 10/s: due at 0.0, 0.1, 0.2, 0.3.
    busy = [0.05, 0.25, 0.01, 0.01]
    after = [0.0, 0.0, 0.02, 0.0]  # a read after arrival 2
    latencies, late = metrics.open_loop(busy, after, 10.0)
    # 0 runs 0.00-0.05; 1 runs 0.10-0.35; 2 waits to 0.35, runs to 0.36,
    # then the read holds the server to 0.38; 3 starts at 0.38.
    assert latencies == pytest.approx([0.05, 0.25, 0.16, 0.09])
    assert late == pytest.approx([0.0, 0.0, 0.15, 0.08])


def test_an_idle_server_answers_each_arrival_in_its_service_time():
    latencies, late = metrics.open_loop([0.01, 0.02, 0.03], [0.0] * 3, 1.0)
    assert latencies == pytest.approx([0.01, 0.02, 0.03])
    assert late == [0.0, 0.0, 0.0]


# ----------------------------------------------------------------------
# Names, units and the BENCHMARK.json format
# ----------------------------------------------------------------------
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def all_metrics():
    return BENCH["end_to_end"] + BENCH["per_layer"]


def test_metric_and_workload_names_are_legal_and_unique():
    names = [m["name"] for m in all_metrics()] + [w["name"] for w in BENCH["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert all(UNIT.fullmatch(m["unit"]) for m in all_metrics())


@pytest.mark.parametrize("bad", ["", "-lead", "has space", "a/b", "x" * 65, "é"])
def test_illegal_names_are_rejected(bad):
    assert not NAME.fullmatch(bad)


def test_benchmark_file_shape():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert all(set(w) == {"name", "why"} for w in BENCH["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in BENCH["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in BENCH["per_layer"])
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in BENCH["workloads"]] == list(SPEC["workloads"])


def test_predictions_cite_declared_names():
    layer = {m["name"] for m in BENCH["per_layer"]}
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    predicted = set()
    for row in SPEC["predictions"]:
        assert set(row["metrics"]) <= layer
        assert set(row["should_move"]) <= e2e
        assert set(row["on"]) <= set(SPEC["workloads"])
        predicted |= set(row["metrics"])
    assert predicted == layer
    assert set(SPEC["per_layer_definitions"]) - {"basis"} == layer


# ----------------------------------------------------------------------
# Result line
# ----------------------------------------------------------------------
class Outcome:
    def __init__(self, values, failed=0):
        self.end_to_end = values
        self.per_layer = values
        self.attempted = 3
        self.failed = failed


def test_result_line_reports_every_declared_metric_with_its_unit():
    line = runner.result_line(Outcome({"a": 1.5}), {"a": "s", "b": "count"}, False)
    assert line == {
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "metrics": {"a": {"value": 1.5, "unit": "s"}, "b": {"value": 0.0, "unit": "count"}},
    }


def test_result_line_rejects_undeclared_and_flags_non_finite():
    with pytest.raises(KeyError):
        runner.result_line(Outcome({"zzz": 1.0}), {"a": "s"}, True)
    line = runner.result_line(Outcome({"a": math.inf}), {"a": "s"}, False)
    assert line["correct"] is False and line["metrics"]["a"]["value"] is None
    assert runner.result_line(Outcome({"a": 1.0}, failed=1), {"a": "s"}, False)["correct"] is False


def test_helper_processes_are_stopped_and_reaped():
    with multiprocessing.get_context("spawn").Pool(processes=1) as pool:
        assert pool.apply(os.getpid) > 0
    del pool  # as in repro.parallel, the pool is garbage once its call returns
    tracker = resource_tracker._resource_tracker
    assert tracker._pid is not None
    runner.stop_helper_processes()
    assert tracker._pid is None
    assert not multiprocessing.active_children()


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    parent = Span(0, "p", 0.0, 10.0, None, 1)
    kids = [
        Span(1, "a", 1.0, 3.0, 0, 1),
        Span(2, "b", 2.0, 5.0, 0, 1),   # overlaps a
        Span(3, "c", 8.0, 12.0, 0, 1),  # runs past the parent
    ]
    assert covered(parent, kids) == pytest.approx(6.0)


def test_recorder_nests_inherits_request_and_computes_self_time():
    clock = FakeClock()
    rec = SpanRecorder(True, clock=clock)
    with rec.span("request", request=7):     # start 1
        with rec.span("call"):               # start 2, end 3
            pass
    # request ends at 4
    by_name = {s.name: s for s in rec.spans}
    assert by_name["call"].parent == by_name["request"].id
    assert by_name["call"].request == 7
    self_s = rec.self_times()
    assert self_s[by_name["request"].id] == pytest.approx(2.0)
    assert self_s[by_name["call"].id] == pytest.approx(1.0)


def test_disabled_recorder_records_nothing(tmp_path):
    rec = SpanRecorder(False)
    with rec.span("x"):
        pass
    assert rec.spans == []
    rec = SpanRecorder(True, clock=FakeClock())
    with rec.span("x", request=1):
        pass
    path = tmp_path / "spans.jsonl"
    rec.write_jsonl(path)
    (row,) = [json.loads(line) for line in path.read_text().splitlines()]
    assert set(row) == {"id", "name", "start", "end", "parent", "request", "self_s"}


# ----------------------------------------------------------------------
# Run length
# ----------------------------------------------------------------------
def test_rounds_continue_until_enough_samples():
    assert metrics.another_round(100.0, 1.0, 10.0, samples=5, needed=6)


def test_rounds_stop_within_half_a_round_of_the_budget():
    assert metrics.another_round(8.0, 3.0, 10.0, samples=9, needed=6)
    assert not metrics.another_round(8.6, 3.0, 10.0, samples=9, needed=6)
    assert not metrics.another_round(12.0, 0.1, 10.0, samples=0, needed=0)
