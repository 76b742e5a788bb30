"""Host-speed calibration: report times at a fixed reference speed.

The machines this benchmark runs on share their cores and caches, and
how fast a core runs pure-Python code drifts by up to 1.6x within a
minute. Process CPU time drifts with it, so it is no steadier than wall
time. What does track the drift is a fixed pure-Python loop timed right
beside the program: :class:`HostSpeed` times :func:`calibration_loop`
before and after each timed call and scales the call's seconds by::

    REFERENCE_S_PER_ITERATION / (seconds per loop iteration around the call)

so a reported time is what the call would take on a host that runs one
loop iteration in ``REFERENCE_S_PER_ITERATION`` seconds. The loop does
the program's kind of work on a working set of a few hundred KB (it
draws floats, sorts them and files them in a dict), so it slows when
other tenants contend for the caches as well as for the core; a loop
over a 64-entry dict tracked the drift of a fleet-prepared batch less
well (coefficient of variation of 20-s medians 0.077 against 0.059).
It creates only three garbage-collected containers per reading, so it
never sets off a collection that would scan the program's heap.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, Dict, List, Tuple

#: Seconds per calibration-loop iteration on the reference host (about
#: the fastest readings on a 2-CPU x86-64 VM with CPython 3.11).
REFERENCE_S_PER_ITERATION = 300e-9

#: Iterations of one calibration reading (~1.5 ms on the reference host).
ITERATIONS = 5000


def calibration_loop(iterations: int) -> int:
    rng = random.Random(7)
    values = [rng.random() for _ in range(iterations)]
    table = {}
    for i, value in enumerate(sorted(values)):
        table[i & 4095] = value
    return len(table)


def speed_factor(seconds_per_iteration: float) -> float:
    """Multiplier from this host's seconds to reference-host seconds."""
    return REFERENCE_S_PER_ITERATION / seconds_per_iteration


class HostSpeed:
    """Calibration readings of one run, in seconds per loop iteration."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        loop: Callable[[int], int] = calibration_loop,
    ) -> None:
        self.clock = clock
        self.loop = loop
        self.readings: List[float] = []

    def read(self, iterations: int = ITERATIONS) -> float:
        start = self.clock()
        self.loop(iterations)
        per_iteration = (self.clock() - start) / iterations
        self.readings.append(per_iteration)
        return per_iteration

    def around(self, call: Callable[[], object]) -> Tuple[float, float, object]:
        """Run ``call`` between two readings.

        Returns (seconds, speed factor, result or the exception raised);
        the factor uses the mean of the readings before and after.
        """
        before = self.read()
        start = self.clock()
        try:
            result = call()
        except Exception as exc:  # judged by the caller
            result = exc
        seconds = self.clock() - start
        after = self.read()
        return seconds, speed_factor((before + after) / 2.0), result


def segment_factors(
    readings: List[Tuple[int, float]], fallback: float, segment: int
) -> Callable[[int], float]:
    """Speed factor of arrival ``i`` of a serve-stream pass.

    ``readings`` are (arrival index, seconds per iteration) pairs taken
    between the pass's calls. Arrivals are grouped ``segment`` at a time; a
    group is scaled by the median of its readings, or by ``fallback``
    when it has none.
    """
    by_segment: Dict[int, List[float]] = {}
    for i, per_iteration in readings:
        by_segment.setdefault(i // segment, []).append(per_iteration)

    def factor(i: int) -> float:
        found = by_segment.get(i // segment)
        return speed_factor(statistics.median(found) if found else fallback)

    return factor
