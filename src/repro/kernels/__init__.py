"""Columnar execution kernels: interned values, rank-space endpoints.

The kernel substrate is how stock TIMEFIRST runs, not a new algorithm:
it replays TIMEFIRST's exact event order over pre-flattened int arrays
and de-interns at emission, so results are indistinguishable from the
object path. See DESIGN.md §"Kernel layer".

Layout:

* :mod:`~repro.kernels.columns` — the only module that touches object
  rows: interning, rank compression, the single per-call event sort,
  de-interning, shard subsetting, timeline bridging.
* :mod:`~repro.kernels.hierarchy` / :mod:`~repro.kernels.generic` —
  row-id driven sweep states (Theorem 6 / Theorem 9 structures).
* :mod:`~repro.kernels.engine` — the one pipeline: the
  ``runs_on_columns`` substrate rule every dispatch site asks, column
  selection (``query_columns``) and the shared sweep / de-intern /
  expand step (``sweep_columns``).
* :mod:`~repro.kernels.prepared` — pay the ingest once per *database*:
  :func:`prepare` / :class:`PreparedDatabase` /
  :func:`run_batch` amortize interning, ranking and the event sort
  across a whole standing-query fleet.
"""

from .columns import (
    KernelColumns,
    build_columns,
    deintern_results,
    shard_row_ids,
    shrink_columns,
)
from .prepared import PreparedDatabase, prepare, run_batch
from .engine import (
    kernel_sweep,
    kernel_timefirst_join,
    prepare_run,
    query_columns,
    runs_on_columns,
    sweep_columns,
)
from .generic import KernelGenericState
from .hierarchy import KernelHierarchicalState

__all__ = [
    "KernelColumns",
    "KernelGenericState",
    "KernelHierarchicalState",
    "PreparedDatabase",
    "build_columns",
    "deintern_results",
    "kernel_sweep",
    "kernel_timefirst_join",
    "prepare",
    "prepare_run",
    "query_columns",
    "run_batch",
    "runs_on_columns",
    "shard_row_ids",
    "shrink_columns",
    "sweep_columns",
]
