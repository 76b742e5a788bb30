"""The four benchmark workloads, driven only through repro's public calls.

Each workload function takes a :class:`Run` and returns an
:class:`Outcome`: how many requests it attempted and how many failed,
the end-to-end metrics (always measured untraced) and, in a traced run,
the per-layer metrics. Inputs are generated from the run's seed outside
the timed region; outputs are checked outside it too.

Untraced runs call the program exactly as a user would, without
``stats=``. A traced run (``Run.trace``) pairs every timed call with a
traced twin on the same input — ``stats=ExecutionStats()`` plus the
benchmark's own spans — so the per-layer numbers come from the twin and
the pair gives the tracing overhead.

End-to-end times are scaled to the reference host speed of
:mod:`hostspeed`; per-layer times are as measured.
"""

from __future__ import annotations

import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro import (
    ExecutionStats,
    JoinQuery,
    prepare,
    run_batch,
    temporal_join,
)
from repro.core import PlanError
from repro.serve import TemporalJoinService
from repro.workloads import tpce
from repro.workloads.synthetic import (
    SyntheticConfig,
    expected_result_count,
    generate,
)

from metrics import (
    RequestLog,
    another_round,
    median,
    open_loop,
    percentile,
)
from hostspeed import HostSpeed, segment_factors
from spans import SpanRecorder

clock = time.perf_counter

#: Generator seeds: request k of a run with seed n draws n * STRIDE + k.
SEED_STRIDE = 1000003
SETUP_SEED_OFFSET = 900000

#: Phase timers that never nest inside one another; summing only these
#: avoids double counting ``phase.kernel.*`` (inside ``phase.events``).
TOP_LEVEL_PHASES = (
    "phase.planner.search",
    "phase.shrink",
    "phase.events",
    "phase.sweep",
    "phase.materialize",
    "phase.core_join",
    "phase.residuals",
    "phase.nontemporal_join",
    "phase.filter",
    "phase.order_search",
    "phase.joins",
    "phase.prepared.view",
    "phase.prepared.restrict",
)

#: Parent-side phases of a sharded call; shard sweeps run in the workers.
PARENT_PHASES = ("phase.shrink", "phase.events")

#: Algorithms a traced adhoc-auto request times to compute auto's regret.
REGRET_ALGORITHMS = ("timefirst", "hybrid", "hybrid-interval")


def request_seed(seed: int, k: int) -> int:
    return seed * SEED_STRIDE + k


def setup_seed(seed: int, i: int) -> int:
    return seed * SEED_STRIDE + SETUP_SEED_OFFSET + i


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    attempted: int
    failed: int
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


class Run:
    """One benchmark run: workload config, seed, time budget, logs."""

    def __init__(self, config: dict, seed: int, seconds: float, trace: bool) -> None:
        self.cfg = config
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.log = RequestLog()
        self.speed = HostSpeed(clock)
        self.factors: List[float] = []
        self.spans = SpanRecorder(trace)
        self.setup: List[float] = []
        self.checks = 0
        self.check_failures: List[str] = []

    def rounds(self, samples: Callable[[], int], at_least: int = 1) -> Iterator[int]:
        """Round numbers 0, 1, ... for as long as the run should measure.

        A traced run reports no percentiles, so time alone ends it.
        """
        needed = 0 if self.trace else self.cfg["min_requests"]
        started = last = clock()
        number = 0
        while True:
            yield number
            number += 1
            now = clock()
            if number >= at_least and not another_round(
                now - started, now - last, self.seconds, samples(), needed
            ):
                return
            last = now

    def check(self, ok: bool, index: Optional[int], reason: str) -> None:
        """Record one output check; a failure fails request ``index``."""
        if ok:
            return
        if index is None:
            self.check_failures.append(reason)
        else:
            self.log.fail(index, reason)

    def timed(self, call: Callable[[], object]) -> Tuple[int, object, float]:
        """Run ``call`` as one logged request, its latency scaled to the
        reference host speed. Returns (log index, result or None, the
        unscaled seconds)."""
        seconds, factor, result = self.speed.around(call)
        self.factors.append(factor)
        index, result = self.log.add(seconds * factor, result)
        return index, result, seconds

    def timed_setup(self, action: Callable[[], object]) -> object:
        with self.spans.span("setup"):
            seconds, factor, out = self.speed.around(action)
        if isinstance(out, Exception):
            raise out
        self.factors.append(factor)
        self.setup.append(seconds * factor)
        return out

    def outcome(self, throughput: float, rss_mb: float) -> Outcome:
        log = self.log
        notes = [
            f"requests={log.attempted} failed={log.failures} "
            f"tail=p{self.cfg['tail_percentile']:g} "
            f"setup_repeats={len(self.setup)} "
            f"host_speed_factor_p50={median(self.factors or [0.0]):.3f}"
        ]
        notes.extend(log.errors[:5])
        notes.extend(self.check_failures[:5])
        return Outcome(
            attempted=log.attempted + self.checks,
            failed=log.failures + len(self.check_failures),
            end_to_end={
                "setup_s": median(self.setup),
                "request_p50_s": log.percentile(50),
                "request_tail_s": log.percentile(self.cfg["tail_percentile"]),
                "throughput_per_s": throughput,
                "peak_rss_mb": rss_mb,
            },
            notes=notes,
        )


def per_request(stats: ExecutionStats, n: int) -> Dict[str, float]:
    """The program's counters and timers common to every join call."""
    n = max(1, n)
    timers, get = stats.timers, stats.get
    return {
        "planner.search_s": timers.get("phase.planner.search", 0.0) / n,
        "planner.search_nodes": get("planner.search_nodes") / n,
        "algorithms.materialize_s": timers.get("phase.materialize", 0.0) / n,
        "algorithms.core_join_s": timers.get("phase.core_join", 0.0) / n,
        "algorithms.residuals_s": timers.get("phase.residuals", 0.0) / n,
        "hybrid.bag_rows.total": get("hybrid.bag_rows.total") / n,
        "hi.core_tuples": get("hi.core_tuples") / n,
        "ij.pairs.total": get("ij.pairs.total") / n,
        "kernels.events_s": timers.get("phase.events", 0.0) / n,
        "kernels.sweep_s": timers.get("phase.sweep", 0.0) / n,
        "sweep.events": get("sweep.events") / n,
        "sweep.active_peak": get("sweep.active_peak"),
        "kernel.sort_calls": get("kernel.sort_calls") / n,
    }


def attributed(stats: ExecutionStats, phases=TOP_LEVEL_PHASES) -> float:
    return sum(stats.timers.get(p, 0.0) for p in phases)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def overhead(traced: float, untraced: float) -> float:
    return traced / untraced - 1.0 if untraced > 0 else 0.0


def attempt(call: Callable[[], object]) -> Tuple[float, object]:
    """Time ``call``; returns (seconds, result or the exception raised)."""
    start = clock()
    try:
        result = call()
    except Exception as exc:  # judged by the caller's output check
        result = exc
    return clock() - start, result


def paired(run: Run, k: int, call, traced_call, span_name: str):
    """Request ``k`` in a traced run: ``call`` is the logged, untraced leg
    and ``traced_call`` its traced twin on the same input. The order
    alternates with ``k`` so that neither leg always runs first.

    Returns (log index, untraced result, untraced seconds, traced
    seconds, traced result); both times are as measured.
    """
    for leg in ("untraced", "traced") if k % 2 else ("traced", "untraced"):
        if leg == "untraced":
            index, result, untraced_s = run.timed(call)
        else:
            with run.spans.span(span_name):
                traced_s, traced = attempt(traced_call)
    return index, result, untraced_s, traced_s, traced


# ----------------------------------------------------------------------
# adhoc-auto
# ----------------------------------------------------------------------
FAMILIES: Dict[str, Callable[[], JoinQuery]] = {
    "line3": lambda: JoinQuery.line(3),
    "star3": lambda: JoinQuery.star(3),
    "triangle": lambda: JoinQuery.cycle(3),
    "cycle4": lambda: JoinQuery.cycle(4),
}


def synthetic(family: str, target_tuples: int, n_results: int, seed: int):
    query = FAMILIES[family]()
    config = SyntheticConfig(
        n_dangling=max(1, target_tuples // len(query.edge_names)),
        n_results=n_results,
        seed=seed,
    )
    return query, config, generate(query, config)


@dataclass
class AdhocTrace:
    stats: ExecutionStats = field(default_factory=ExecutionStats)
    traced_s: float = 0.0
    untraced_s: float = 0.0
    regrets: List[float] = field(default_factory=list)
    requests: int = 0


def adhoc_auto(run: Run) -> Outcome:
    cfg = run.cfg
    warm = cfg["warmup"]
    for i in range(cfg["setup_repeats"]):
        inputs = [
            synthetic(family, warm["target_tuples"], cfg["n_results"],
                      setup_seed(run.seed, i * len(warm["families"]) + j))
            for j, family in enumerate(warm["families"])
        ]
        results = run.timed_setup(lambda: [
            temporal_join(query, db, tau=warm["tau"]) for query, _, db in inputs
        ])
        for (_, config, _), result in zip(inputs, results):
            run.checks += 1
            run.check(
                len(result) == expected_result_count(config, warm["tau"]),
                None, "warm-up result count",
            )

    taus = cfg["taus"]
    schedule = [
        (target, family, taus[(i + j) % len(taus)])
        for i, target in enumerate(cfg["target_tuples"])
        for j, family in enumerate(cfg["families"])
    ]
    acc = AdhocTrace()
    k = 0
    for _ in run.rounds(lambda: run.log.attempted):
        for target, family, tau in schedule:
            query, config, db = synthetic(
                family, target, cfg["n_results"], request_seed(run.seed, k)
            )
            expected = expected_result_count(config, tau)
            if run.trace:
                _adhoc_traced(run, acc, k, query, db, tau, expected)
            else:
                index, result, _ = run.timed(lambda: temporal_join(query, db, tau=tau))
                run.check(
                    result is not None and len(result) == expected,
                    index, f"{family} n={target} tau={tau}: wrong result count",
                )
            k += 1
    rss = peak_rss_mb()
    out = run.outcome(
        ratio(run.log.attempted - run.log.failures, run.log.successful_total()),
        rss,
    )
    if run.trace:
        n = acc.requests
        regrets = sorted(acc.regrets) or [0.0]
        out.per_layer = per_request(acc.stats, n)
        out.per_layer.update({
            "dispatch.regret_p50": median(regrets),
            "dispatch.regret_max": regrets[-1],
            "dispatch.mispick_frac": ratio(
                sum(1 for r in acc.regrets if r > cfg["mispick_regret"]),
                len(acc.regrets),
            ),
            "join.unattributed_frac": 1.0 - ratio(attributed(acc.stats), acc.traced_s),
            "trace.overhead_frac": overhead(acc.traced_s, acc.untraced_s),
        })
    return out


def agrees(result, reference, expected: int) -> bool:
    """Whether ``result`` holds ``expected`` rows, as a multiset equal to
    the normalized ``reference`` rows."""
    return (
        reference is not None
        and result is not None
        and not isinstance(result, Exception)
        and len(result) == expected
        and result.normalized() == reference
    )


def _adhoc_traced(run, acc, k, query, db, tau, expected) -> None:
    """One traced adhoc request: auto untraced and traced, then every
    regret algorithm on the same input."""
    spans = run.spans
    stats = ExecutionStats()
    with spans.span("request", request=k):
        index, untraced, auto_s, traced_s, traced = paired(
            run, k,
            lambda: temporal_join(query, db, tau=tau),
            lambda: temporal_join(query, db, tau=tau, stats=stats),
            "temporal_join.auto",
        )
        times = {}
        reference = None
        for name in REGRET_ALGORITHMS:
            with spans.span(f"temporal_join.{name}"):
                seconds, result = attempt(
                    lambda: temporal_join(query, db, tau=tau, algorithm=name)
                )
            if isinstance(result, PlanError) and name != "timefirst":
                continue  # no guarded partition: inapplicable to this query
            if name == "timefirst":
                reference = None if isinstance(result, Exception) else result.normalized()
            run.checks += 1
            if not agrees(result, reference, expected):
                error = type(result).__name__ if isinstance(result, Exception) else "wrong rows"
                run.check(False, None, f"request {k}: {name} differs from timefirst ({error})")
            times[name] = seconds
    ok = agrees(untraced, reference, expected) and agrees(traced, reference, expected)
    run.check(ok, index, f"request {k}: auto differs from timefirst")
    if run.log.failed[index] or run.check_failures:
        return
    acc.requests += 1
    acc.stats.merge(stats)
    acc.traced_s += traced_s
    acc.untraced_s += auto_s
    acc.regrets.append(auto_s / min(times.values()))


# ----------------------------------------------------------------------
# fleet-prepared
# ----------------------------------------------------------------------
def fleet_queries(cfg) -> Tuple[JoinQuery, List[JoinQuery]]:
    schema = JoinQuery.star(5)
    fleet = []
    for k, reverse in cfg["fleet"]:
        edges = {name: schema.edge(name) for name in schema.edge_names[:k]}
        query = JoinQuery(edges)
        if reverse:
            query = JoinQuery(edges, attr_order=tuple(reversed(query.attrs)))
        fleet.append(query)
    return schema, fleet


def fleet_prepared(run: Run) -> Outcome:
    cfg = run.cfg
    spans = run.spans
    schema, fleet = fleet_queries(cfg)
    config = SyntheticConfig(seed=request_seed(run.seed, 0), **cfg["config"])
    db = generate(schema, config)
    taus = cfg["taus"]
    setup_stats = ExecutionStats() if run.trace else None
    batches: List[Tuple[Optional[int], float, object]] = []

    def set_up():
        with spans.span("prepare"):
            artifact = prepare(db, stats=setup_stats)
        for tau in taus:
            with spans.span("run_batch.warmup"):
                batches.append(
                    (None, tau, run_batch(fleet, artifact, tau=tau, stats=setup_stats))
                )
        return artifact

    for _ in range(cfg["setup_repeats"]):
        artifact = run.timed_setup(set_up)

    batch_stats = ExecutionStats()
    traced_s = untraced_s = 0.0
    k = 0
    for _ in run.rounds(lambda: run.log.attempted):
        for tau in taus:
            if not run.trace:
                index, results, _ = run.timed(lambda: run_batch(fleet, artifact, tau=tau))
                batches.append((index, tau, results))
            else:
                stats = ExecutionStats()
                with spans.span("request", request=k):
                    index, results, untraced, seconds, traced = paired(
                        run, k,
                        lambda: run_batch(fleet, artifact, tau=tau),
                        lambda: run_batch(fleet, artifact, tau=tau, stats=stats),
                        "run_batch",
                    )
                batches.append((index, tau, results))
                batches.append((None, tau, traced))
                batch_stats.merge(stats)
                traced_s += seconds
                if not run.log.failed[index]:
                    untraced_s += untraced
            k += 1
    rss = peak_rss_mb()

    cold: Dict[Tuple, list] = {}
    for index, tau, results in batches:
        expected = expected_result_count(config, tau)
        for query, result in zip(fleet, [] if results is None else results):
            key = (tuple(query.edge_names), query.attrs, tau)
            if key not in cold:
                sub = {name: db[name] for name in query.edge_names}
                cold[key] = temporal_join(query, sub, tau=tau).normalized()
        ok = (
            isinstance(results, list)
            and len(results) == len(fleet)
            and all(
                len(r) == expected
                and r.normalized() == cold[(tuple(q.edge_names), q.attrs, tau)]
                for q, r in zip(fleet, results)
            )
        )
        if index is None:
            run.checks += 1
        run.check(ok, index, f"batch tau={tau}: differs from cold temporal_join")

    ok_batches = run.log.attempted - run.log.failures
    out = run.outcome(
        ratio(ok_batches * len(fleet), run.log.successful_total()), rss
    )
    if run.trace:
        n = max(1, k)
        everything = ExecutionStats().merge(setup_stats).merge(batch_stats)
        calls = n + len(taus) * cfg["setup_repeats"]
        get = everything.get
        out.per_layer = per_request(batch_stats, n)
        out.per_layer.update({
            "join.unattributed_frac": 1.0 - ratio(attributed(batch_stats), traced_s),
            "prepared.prepare_s": median([s.duration for s in spans.named("prepare")]),
            "prepared.batch_s": traced_s / n,
            "prepared.view_s": everything.timers.get("phase.prepared.view", 0.0) / calls,
            "prepared.restrict_s": everything.timers.get("phase.prepared.restrict", 0.0) / calls,
            "prepared.view_hit_ratio": ratio(
                get("prepared.view_cache_hits"),
                get("prepared.view_cache_hits") + get("prepared.view_cache_misses"),
            ),
            "prepared.restrict_hit_ratio": ratio(
                get("prepared.restrict_cache_hits"),
                get("prepared.restrict_cache_hits") + get("prepared.restrict_cache_misses"),
            ),
            "prepared.dedup_ratio": ratio(
                get("prepared.batch_evaluations"), get("prepared.batch_queries")
            ),
            "prepared.fallback_frac": ratio(
                get("prepared.fallback_queries"), get("prepared.batch_queries")
            ),
            "trace.overhead_frac": overhead(traced_s, untraced_s),
        })
    return out


# ----------------------------------------------------------------------
# serve-stream
# ----------------------------------------------------------------------
def tpce_stream(cfg, seed: int):
    """One TPC-E holdings stream: the star database and its arrivals in
    endpoint order."""
    holdings = tpce.generate_holdings(tpce.TPCEConfig(seed=seed, **cfg["config"]))
    database = tpce.star_database(holdings, max(k for _, k, _ in cfg["fleet"]))
    arrivals = sorted(
        (
            (name, values, interval)
            for name, relation in database.items()
            for values, interval in relation
        ),
        key=lambda arrival: (arrival[2].lo, arrival[2].hi),
    )
    return database, arrivals


def digest(results) -> Tuple[int, int]:
    """Row count and hash of the sorted rows: equal multisets, equal digests."""
    rows = results.normalized()
    return len(rows), hash(tuple(rows))


@dataclass
class ServeTrace:
    busy_s: Dict[bool, float] = field(default_factory=lambda: {False: 0.0, True: 0.0})
    scaled_s: Dict[bool, float] = field(default_factory=lambda: {False: 0.0, True: 0.0})
    operations: Dict[bool, int] = field(default_factory=lambda: {False: 0, True: 0})
    callback_s: float = 0.0
    late: List[float] = field(default_factory=list)
    reads: List[float] = field(default_factory=list)
    telemetry: ExecutionStats = field(default_factory=ExecutionStats)
    traced_passes: int = 0


def _open_service(run: Run, fleet, on_row):
    service = TemporalJoinService()
    handles = []
    for name, query, tau in fleet:
        with run.spans.span("register"):
            handle = service.register(query, tau=tau, name=name, retain_results=True)
        handle.subscribe(on_row)
        handles.append(handle)
    return service, handles


def _stream(run: Run, service, arrivals, span, before, after):
    """Append every arrival back to back, then finish. ``before(i)`` runs
    untimed before append ``i``; ``after(i)`` runs after it and returns
    the seconds the server then spent on other work (reads).

    Returns (seconds inside each append() and, last, finish(); seconds
    of other work after each append), or None if the program raised.
    """
    append = service.append
    busy: List[float] = []
    other: List[float] = []
    try:
        for i, (relation, values, interval) in enumerate(arrivals):
            before(i)
            start = clock()
            with span("append"):
                append(relation, values, interval)
            busy.append(clock() - start)
            other.append(after(i))
        start = clock()
        with span("finish"):
            service.finish()
        busy.append(clock() - start)
    except Exception as exc:  # a failed append is counted, not fatal
        run.check(False, run.log.record_failure(f"append: {exc!r}"), "append raised")
        return None
    return busy, other


def _no_span(_name):
    return nullcontext()


def serve_stream(run: Run) -> Outcome:
    cfg = run.cfg
    spans = run.spans
    fleet = [(name, tpce.star_query(k), tau) for name, k, tau in cfg["fleet"]]
    acc = ServeTrace()

    def noop(_emission) -> None:
        pass

    for i in range(cfg["setup_repeats"]):
        _, warmup = tpce_stream(cfg, setup_seed(run.seed, i))

        def set_up():
            service, _ = _open_service(run, fleet, noop)
            with spans.span("ingest.warmup"):
                for arrival in warmup:
                    service.append(*arrival)
                service.finish()
        run.timed_setup(set_up)

    # Every pass streams a fresh stream, so a run averages over several
    # streams. Arrivals are fed back to back and each call's service time
    # is measured; the open loop is then replayed from those times
    # (metrics.open_loop), because the service runs on one thread: arrival
    # i is due at i / rate and waits for the calls before it. A request
    # is one arrival whose append() delivered rows; its latency runs from
    # its due time to the end of that append(), which returns after the
    # callbacks received the rows. Ingest capacity comes from the same
    # passes: calls per second spent inside append()/finish(). Service
    # times are scaled to the reference host speed segment by segment,
    # from short calibration readings taken between appends (untimed).
    # A traced run alternates untraced and traced passes; the pair gives
    # the overhead of the benchmark's own spans.
    rate = cfg["loop"]["rate_per_s"]
    every = cfg["snapshot_every"]
    calibrate = cfg["calibration"]
    arrived = 0
    for number in run.rounds(lambda: run.log.attempted, at_least=2 if run.trace else 1):
        database, arrivals = tpce_stream(cfg, request_seed(run.seed, number))
        # Digests, not row lists: holding reference rows alive would make
        # every garbage collection during the timed pass slower.
        offline = [
            digest(temporal_join(
                query, {name: database[name] for name in query.edge_names}, tau=tau
            ))
            for _, query, tau in fleet
        ]
        traced = run.trace and number % 2 == 1
        span = spans.span if traced else _no_span
        delivered = [False]
        callback = [0.0]
        if traced:
            def on_row(_emission) -> None:
                start = clock()
                delivered[0] = True
                callback[0] += clock() - start
        else:
            def on_row(_emission) -> None:
                delivered[0] = True
        service, handles = _open_service(run, fleet, on_row)
        readings: List[Tuple[int, float]] = []
        delivering: List[bool] = []

        def before(i: int) -> None:
            if i % calibrate["every"] == 0:
                readings.append((i, run.speed.read()))
            delivered[0] = False

        def after(i: int) -> float:
            delivering.append(delivered[0])
            if i % every != every - 1:
                return 0.0
            handle = handles[(i // every) % len(handles)]
            with span("snapshot"):
                start = clock()
                handle.snapshot()
                seconds = clock() - start
            acc.reads.append(seconds)
            return seconds

        with span("pass"):
            timings = _stream(run, service, arrivals, span, before, after)
        arrived += len(arrivals)
        if timings is not None:
            busy, other = timings
            factor = segment_factors(
                readings, median([r for _, r in readings]), calibrate["segment"]
            )
            scale = [factor(min(i, len(arrivals) - 1)) for i in range(len(busy))]
            scaled = [seconds * f for seconds, f in zip(busy, scale)]
            latencies, late = open_loop(
                scaled, [seconds * f for seconds, f in zip(other, scale)], rate
            )
            for seconds, rows in zip(latencies, delivering):
                if rows:
                    run.log.record(seconds)
            acc.late.extend(late)
            run.factors.extend(scale[:: calibrate["segment"]])
            acc.busy_s[traced] += sum(busy)
            acc.scaled_s[traced] += sum(scaled)
            acc.operations[traced] += len(busy)
        if traced:
            acc.traced_passes += 1
            acc.callback_s += callback[0]
            acc.telemetry.merge(service.telemetry())
        for handle, reference in zip(handles, offline):
            run.checks += 1
            run.check(
                digest(handle.snapshot().results) == reference,
                None, f"{handle.name}: final snapshot differs from offline join",
            )
        del service, handles
    rss = peak_rss_mb()
    failed_appends = run.log.failures
    out = run.outcome(ratio(acc.operations[False], acc.scaled_s[False]), rss)
    out.attempted = arrived + run.checks
    out.failed = failed_appends + len(run.check_failures)
    out.notes.append(
        f"passes={number + 1} rate={rate}/s arrivals={arrived} "
        f"requests={run.log.attempted} late_p99={percentile(acc.late or [0.0], 99):.6f}s"
    )
    if run.trace:
        telemetry = acc.telemetry
        n = max(1, acc.traced_passes)
        operations = max(1, acc.operations[True])
        registers = spans.named("register")
        out.per_layer = {
            "serve.register_s": sum(s.duration for s in registers) / max(1, len(registers)),
            "serve.append_s": (acc.busy_s[True] - acc.callback_s) / operations,
            "serve.deliver_s": telemetry.timers.get("phase.serve.deliver", 0.0) / operations,
            "serve.snapshot_s": median(acc.reads) if acc.reads else 0.0,
            "serve.fanout_inserts": telemetry.get("serve.fanout_inserts") / n,
            "serve.results_emitted": telemetry.get("serve.results_emitted") / n,
            "serve.results_delivered": telemetry.get("serve.results_delivered") / n,
            "serve.active_peak": telemetry.get("serve.active_peak"),
            "serve.emit_lag.max": telemetry.get("serve.emit_lag.max"),
            "serve.buffer_depth_peak": telemetry.get("serve.buffer_depth_peak"),
            "serve.dropped": telemetry.get("serve.dropped") / n,
            "loadgen.late_p99_s": percentile(acc.late or [0.0], 99),
            "trace.overhead_frac": overhead(
                acc.scaled_s[True] / operations,
                ratio(acc.scaled_s[False], acc.operations[False]),
            ),
        }
    return out


# ----------------------------------------------------------------------
# sharded
# ----------------------------------------------------------------------
def _sharded_call(query, db, tau, stats=None):
    return temporal_join(
        query, db, tau=tau, algorithm="timefirst", workers=2,
        parallel_mode="process", stats=stats,
    )


def sharded(run: Run) -> Outcome:
    cfg = run.cfg
    spans = run.spans
    tau = cfg["tau"]
    query = JoinQuery.line(3)
    config = SyntheticConfig(seed=request_seed(run.seed, 0), **cfg["config"])
    db = generate(query, config)
    expected = expected_result_count(config, tau)

    for i in range(cfg["setup_repeats"]):
        warm_config = SyntheticConfig(
            n_dangling=cfg["warmup_n_dangling"],
            n_results=cfg["config"]["n_results"],
            seed=setup_seed(run.seed, i),
        )
        warm_db = generate(query, warm_config)
        result = run.timed_setup(lambda: _sharded_call(query, warm_db, tau))
        run.checks += 1
        run.check(
            len(result) == expected_result_count(warm_config, tau),
            None, "warm-up result count",
        )

    results: List[Tuple[Optional[int], object, Optional[ExecutionStats]]] = []
    serial_s: List[float] = []
    untraced_walls: List[float] = []
    traced_walls: List[float] = []
    k = 0
    for _ in run.rounds(lambda: run.log.attempted):
        if not run.trace:
            index, result, _ = run.timed(lambda: _sharded_call(query, db, tau))
            results.append((index, result, None))
        else:
            stats = ExecutionStats()
            with spans.span("request", request=k):
                index, result, untraced_s, seconds, traced = paired(
                    run, k,
                    lambda: _sharded_call(query, db, tau),
                    lambda: _sharded_call(query, db, tau, stats),
                    "temporal_join.workers2",
                )
                with spans.span("temporal_join.serial"):
                    serial_seconds, serial = attempt(
                        lambda: temporal_join(query, db, tau=tau, algorithm="timefirst")
                    )
            results.extend([(index, result, None), (None, traced, stats), (None, serial, None)])
            traced_walls.append(seconds)
            if not run.log.failed[index]:
                untraced_walls.append(untraced_s)
            serial_s.append(serial_seconds)
        k += 1
    rss = peak_rss_mb()

    reference = temporal_join(query, db, tau=tau, algorithm="timefirst").normalized()
    for index, result, stats in results:
        ok = agrees(result, reference, expected)
        if stats is not None and ok:
            ok = stats.get("parallel.shard_results.total") == len(result)
        if index is None:
            run.checks += 1
        run.check(ok, index, "sharded result differs from the serial result")

    out = run.outcome(
        ratio(run.log.attempted - run.log.failures, run.log.successful_total()), rss
    )
    if run.trace:
        traced = [s for _, _, s in results if s is not None]
        total = ExecutionStats()
        critical = []
        unattributed = []
        for stats, wall in zip(traced, traced_walls):
            total.merge(stats)
            shards = [
                seconds for phase, seconds in stats.timers.items()
                if phase.startswith("phase.parallel.shard")
            ]
            critical.append(max(shards, default=0.0))
            unattributed.append(wall - critical[-1] - attributed(stats, PARENT_PHASES))
        n = max(1, len(traced))
        out.per_layer = per_request(total, n)
        out.per_layer.update({
            "join.unattributed_frac": ratio(sum(unattributed), sum(traced_walls)),
            "parallel.workers_s": total.timers.get("phase.parallel.workers", 0.0) / n,
            "parallel.critical_shard_s": sum(critical) / n,
            "parallel.unattributed_s": sum(unattributed) / n,
            "parallel.skew_pct_peak": total.get("parallel.skew_pct_peak"),
            "parallel.replicated": total.get("parallel.replicated") / n,
            "parallel.speedup": ratio(median(serial_s), median(untraced_walls)) if serial_s and untraced_walls else 0.0,
            "trace.overhead_frac": overhead(sum(traced_walls), sum(untraced_walls)),
        })
    return out


WORKLOADS: Dict[str, Callable[[Run], Outcome]] = {
    "adhoc-auto": adhoc_auto,
    "fleet-prepared": fleet_prepared,
    "serve-stream": serve_stream,
    "sharded": sharded,
}
