"""Pure measurement arithmetic shared by the benchmark runner.

Everything here is deterministic and free of I/O so the rules the
benchmark reports by can be unit-tested (``test_perfbench.py``):

* percentiles use the nearest-rank definition, so a reported value is
  always one of the measured samples;
* the tail rule: a workload reports its latency tail at a fixed
  percentile, and a run must hold enough samples that at least
  :data:`TAIL_BEYOND` of them lie strictly beyond it;
* run length: a run measures whole rounds and ends within half a round
  of its time budget;
* failure accounting: a request that raises or returns a wrong result
  is failed, and a failed request misses every latency limit (its
  latency counts as infinite in every percentile);
* open-loop arithmetic: arrival ``i`` of a generator offering ``rate``
  arrivals per second is due at ``start + i / rate``; latency is timed
  from the due time, and how late the generator sent is recorded apart.
  :func:`open_loop` replays a single-threaded server's queue from
  measured service times, so a stall delays every arrival behind it.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

#: Samples that must lie strictly beyond a reported tail percentile.
TAIL_BEYOND = 10


# ----------------------------------------------------------------------
# Percentiles and the tail rule
# ----------------------------------------------------------------------
def rank_of(n: int, pct: float) -> int:
    """1-based nearest rank of the ``pct``-th percentile of ``n`` samples."""
    if n < 1:
        raise ValueError("a percentile needs at least one sample")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must lie in (0, 100], got {pct!r}")
    # Round away binary noise first: 90% of 100 must be rank 90, not 91.
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def percentile(values: Iterable[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of all samples at or below it."""
    ordered = sorted(values)
    return ordered[rank_of(len(ordered), pct) - 1]


def beyond(n: int, pct: float) -> int:
    """Samples strictly beyond the ``pct``-th percentile of ``n`` samples."""
    return n - rank_of(n, pct)


def min_samples(pct: float) -> int:
    """Fewest samples for which ``pct`` has :data:`TAIL_BEYOND` beyond it."""
    n = TAIL_BEYOND + 1
    while beyond(n, pct) < TAIL_BEYOND:
        n += 1
    return n


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
class RequestLog:
    """Latencies and outcomes of the timed requests of one run.

    A failed request keeps an infinite latency, so it lies beyond every
    latency limit and pushes every percentile up, never down.
    """

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.failed: List[bool] = []
        self.errors: List[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failures(self) -> int:
        return sum(self.failed)

    def record(self, seconds: float) -> int:
        """Log a request that returned; returns its index."""
        self.latencies.append(seconds)
        self.failed.append(False)
        return len(self.latencies) - 1

    def record_failure(self, error: str) -> int:
        """Log a request that raised; returns its index."""
        self.latencies.append(math.inf)
        self.failed.append(True)
        self.errors.append(error)
        return len(self.latencies) - 1

    def fail(self, index: int, reason: str) -> None:
        """Mark a returned request failed after its output was checked."""
        if not self.failed[index]:
            self.failed[index] = True
            self.latencies[index] = math.inf
            self.errors.append(reason)

    def add(self, seconds: float, result) -> Tuple[int, object]:
        """Log a request that took ``seconds`` and returned ``result``;
        an exception as the result fails it. Returns (index, result or
        None)."""
        if isinstance(result, Exception):
            error = f"{type(result).__name__}: {result}"
            return self.record_failure(error), None
        return self.record(seconds), result

    def percentile(self, pct: float) -> float:
        return percentile(self.latencies, pct)

    def successful_total(self) -> float:
        return sum(s for s, bad in zip(self.latencies, self.failed) if not bad)


# ----------------------------------------------------------------------
# Open-loop arithmetic
# ----------------------------------------------------------------------
def due_time(start: float, index: int, rate: float) -> float:
    """When arrival ``index`` of an open loop offering ``rate``/s is due."""
    return start + index / rate


def latency_from_due(done: float, due: float) -> float:
    """Open-loop latency: from when the work was due, not when it was sent.

    A stall that delays later sends therefore shows in their latency.
    """
    return done - due


def lateness(sent: float, due: float) -> float:
    """How late the generator sent an arrival (0 when on time)."""
    return max(0.0, sent - due)


def open_loop(
    busy: Sequence[float], after: Sequence[float], rate: float
) -> Tuple[List[float], List[float]]:
    """Open-loop latencies of a single-threaded server, from its service times.

    Arrival ``i`` is due at ``i / rate``. It starts when it is due or when
    the server is free, whichever is later, occupies the server for
    ``busy[i]`` and then the server spends ``after[i]`` on other work
    before taking the next arrival. Returns each arrival's latency from
    its due time to the end of its service, and how late it started.
    """
    free = 0.0
    latencies: List[float] = []
    late: List[float] = []
    for i, (serve, other) in enumerate(zip(busy, after)):
        due = due_time(0.0, i, rate)
        start = max(due, free)
        done = start + serve
        latencies.append(latency_from_due(done, due))
        late.append(lateness(start, due))
        free = done + other
    return latencies, late


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


# ----------------------------------------------------------------------
# Run length
# ----------------------------------------------------------------------
def another_round(
    elapsed: float, last_round: float, seconds: float, samples: int, needed: int
) -> bool:
    """Whether a run measuring whole rounds should start one more.

    It must until ``needed`` samples are in; after that, only while
    less than half of a round like the last would run past ``seconds``,
    so a run ends within half a round of its time budget.
    """
    if samples < needed:
        return True
    return elapsed + last_round / 2 < seconds
