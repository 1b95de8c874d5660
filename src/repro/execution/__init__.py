"""Execution backends for the streaming aggregation pipeline.

The protocols' accumulators form an exact merge algebra (associative,
commutative, integer-sum state), so aggregation parallelises without
approximation: split the record batches across shards, evaluate each shard
on any worker, merge.  This package supplies the schedulers —
:class:`SerialExecutor` (the in-process reference) and
:class:`ProcessExecutor` (multiprocessing over picklable shard work units)
— behind one :class:`Executor` interface consumed by
:meth:`~repro.protocols.base.MarginalReleaseProtocol.run_streaming`.
"""

from .base import Executor, ShardWork, execute_shard, execute_shard_state
from .process import ProcessExecutor
from .registry import (
    EXECUTOR_CLASSES,
    ExecutorLike,
    available_executors,
    make_executor,
    resolve_executor,
)
from .serial import SerialExecutor

__all__ = [
    "Executor",
    "ShardWork",
    "execute_shard",
    "execute_shard_state",
    "SerialExecutor",
    "ProcessExecutor",
    "EXECUTOR_CLASSES",
    "ExecutorLike",
    "available_executors",
    "make_executor",
    "resolve_executor",
]
