"""Multiprocessing backend: true multi-core parallelism via picklable shards.

Each worker process receives whole :class:`~repro.execution.base.ShardWork`
units (protocol configuration, record batches, pre-spawned child
generators), evaluates them with the shared
:func:`~repro.execution.base.execute_shard` rule, and sends back only the
accumulator's :meth:`~repro.protocols.base.Accumulator.state_dict` — a small
dict of integer-sum arrays for every protocol except the ``InpEM`` baseline
(whose state is the noisy records themselves).  The driver restores each
state into a fresh accumulator and merges associatively, so the result is
bit-for-bit identical to the serial path.

The cost model is the usual one: one-time pool start-up plus per-shard
pickling of the record batches, amortised only when the per-shard encoding
work dominates.  For tiny datasets the serial backend wins.
"""

from __future__ import annotations

import multiprocessing
from typing import List, Optional

from ..core.exceptions import ExecutionError
from .base import Executor, ShardWork, execute_shard

__all__ = ["ProcessExecutor"]


def _execute_shard_payload(work: ShardWork):
    """Worker-side evaluation returning (accumulator state, final rng states).

    The generators in a pickled work unit are *copies*: encoding consumes
    them in the worker, not on the driver.  Shipping their final
    ``bit_generator`` states back lets the driver fast-forward its own
    generator objects, so the caller-visible rng side effects match the
    serial backend exactly (``run_streaming`` hands the caller's own
    generator to the single-batch case).
    """
    accumulator = execute_shard(work)
    return (
        accumulator.state_dict(),
        tuple(rng.bit_generator.state for rng in work.rngs),
    )


class ProcessExecutor(Executor):
    """Evaluates shards on a lazily created, reusable process pool.

    Parameters
    ----------
    workers:
        Number of worker processes.
    start_method:
        Forwarded to :func:`multiprocessing.get_context` (``"fork"``,
        ``"spawn"``, ``"forkserver"``); ``None`` uses the platform default.
        All methods work because work units and results are fully picklable.
    """

    name = "process"

    def __init__(self, workers: int = 1, start_method: Optional[str] = None):
        super().__init__(workers)
        if start_method is not None:
            valid = multiprocessing.get_all_start_methods()
            if start_method not in valid:
                raise ExecutionError(
                    f"unknown start method {start_method!r}; "
                    f"this platform supports {valid}"
                )
        self._start_method = start_method
        self._pool = None

    def _run(self, works: List[ShardWork]) -> List:
        if self._pool is None:
            context = multiprocessing.get_context(self._start_method)
            self._pool = context.Pool(processes=self._workers)
        payloads = self._pool.map(_execute_shard_payload, works)
        accumulators = []
        for work, (state, rng_states) in zip(works, payloads):
            for rng, final_state in zip(work.rngs, rng_states):
                rng.bit_generator.state = final_state
            accumulators.append(
                work.protocol.accumulator(work.domain).load_state(state)
            )
        return accumulators

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
