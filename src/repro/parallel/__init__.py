"""Parallel execution engine: time-domain sharded sweeps, exactly-once merge.

Runs any registered evaluation strategy across ``p`` contiguous time
shards and reassembles the global result without deduplication. See
``DESIGN.md`` ("Parallel execution") for the ownership rule and the
boundary-replication argument. The entry point is
``temporal_join(..., workers=p, parallel_mode=...)`` in
:mod:`repro.algorithms.registry`, which validates and resolves the call
and then runs :func:`repro.parallel.executor.sharded_join`.
"""

from .merge import merge_outcomes
from .partition import (
    TimePartition,
    collect_endpoints,
    partition_timeline,
    replication_factor,
    shard_databases,
)
from .worker import ShardOutcome, ShardTask, run_shard

__all__ = [
    "ShardOutcome",
    "ShardTask",
    "TimePartition",
    "collect_endpoints",
    "merge_outcomes",
    "partition_timeline",
    "replication_factor",
    "run_shard",
    "shard_databases",
]
