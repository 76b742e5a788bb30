"""Shard worker: runs one time shard of a sharded join.

:func:`run_shard` is the function shipped to worker processes. It is a
plain module-level function over picklable dataclasses, so it works
under every ``multiprocessing`` start method including ``spawn`` (where
the child interpreter imports this module fresh and receives the task by
pickle — nothing may depend on inherited parent state).

A task is one of two shapes: a :class:`ShardTask` runs the *unmodified*
registered algorithm on its shard sub-database (object rows), a
:class:`BatchShardTask` runs the kernel pipeline for one or more queries
on its shard column subset. Either way the worker then applies the
ownership filter: only results whose intersection interval ends inside
the shard's owned range survive (see :mod:`repro.parallel.partition`).
Everything else is a boundary duplicate that some neighbouring shard
owns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..core.interval import Number
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet, ResultRow
from ..obs import ExecutionStats
from .partition import TimePartition


@dataclass
class ShardTask:
    """One shard of an object-row run, pickled exactly once per shard.

    Carries the shard sub-database; the worker runs the registered
    ``algorithm`` on it with ``kwargs``.
    """

    shard: int
    query: JoinQuery
    database: Dict[str, TemporalRelation]
    tau: Number
    algorithm: str
    cuts: Tuple[Number, ...]
    kwargs: Dict = field(default_factory=dict)
    collect_stats: bool = False

    @property
    def input_size(self) -> int:
        return sum(len(rel) for rel in self.database.values())

    def evaluate(self, stats: Optional[ExecutionStats]) -> Iterator[JoinResultSet]:
        from ..algorithms.registry import get_algorithm

        kwargs = dict(self.kwargs)
        if stats is not None:
            kwargs["stats"] = stats
        fn = get_algorithm(self.algorithm)
        yield fn(self.query, self.database, tau=self.tau, **kwargs)


@dataclass
class BatchShardTask:
    """One shard of a column run: every query sweeps one column subset.

    ``columns`` is the shard's slice of the run columns (see
    :meth:`repro.kernels.KernelColumns.subset`), so no object rows cross
    the process boundary. ``queries`` are *run* queries — already
    validated, τ-shrunk and r-hierarchically reduced by the parent — and
    a sharded single query is a one-query task. The worker restricts the
    shard columns per distinct relation subset locally, so one payload
    serves a whole prepared batch.
    """

    shard: int
    queries: List[JoinQuery]
    tau: Number
    cuts: Tuple[Number, ...]
    columns: object  # repro.kernels.KernelColumns
    collect_stats: bool = False

    @property
    def input_size(self) -> int:
        return self.columns.n_rows

    def evaluate(self, stats: Optional[ExecutionStats]) -> Iterator[JoinResultSet]:
        from ..kernels import sweep_columns

        restricted: Dict[Tuple[str, ...], object] = {}
        for query in self.queries:
            keep = tuple(sorted(query.edge_names))
            columns = restricted.get(keep)
            if columns is None:
                columns = restricted[keep] = self.columns.restrict(keep)
            yield sweep_columns(query, columns, self.tau, stats=stats)


@dataclass
class ShardOutcome:
    """One shard's owned rows (one list per task query) and its profile."""

    shard: int
    rows: List[List[ResultRow]]
    input_size: int
    seconds: float
    stats: Optional[ExecutionStats] = None


def run_shard(task: Union[ShardTask, BatchShardTask]) -> ShardOutcome:
    """Evaluate ``task`` and keep only the results this shard owns.

    Algorithms are resolved from the registry *inside* the worker —
    looked up by name rather than pickled, which keeps the payload small
    and spawn-safe. Exceptions propagate; the pool in
    :mod:`repro.parallel.executor` re-raises them in the parent.
    """
    partition = TimePartition(task.cuts)
    stats = ExecutionStats() if task.collect_stats else None
    shard = task.shard
    owner = partition.owner

    start = time.perf_counter()
    owned = []
    for result in task.evaluate(stats):
        owned.append([row for row in result.rows if owner(row[1].hi) == shard])
    return ShardOutcome(
        shard=shard,
        rows=owned,
        input_size=task.input_size,
        seconds=time.perf_counter() - start,
        stats=stats,
    )
