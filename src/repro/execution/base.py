"""Executor interface and the shard work unit it schedules.

:meth:`~repro.protocols.base.MarginalReleaseProtocol.run_streaming` splits a
dataset into record batches, assigns each batch a pre-spawned child generator
and a shard, and hands the resulting :class:`ShardWork` units to an
:class:`Executor`.  An executor's only job is to evaluate
:func:`execute_shard` for every unit — encode the shard's batches client-side
and fold them into one fresh accumulator — and return the per-shard
accumulators *in shard order* so the driver can merge and finalize them.

Because each batch perturbs with its own generator and the batch -> shard
assignment is fixed by the driver, the estimates are bit-for-bit identical
across backends and worker counts; only wall-clock time changes.  A
:class:`ShardWork` is picklable end to end (protocol configuration, record
batches, ``numpy`` generators), which is what lets the multiprocessing
backend ship whole shards to worker processes and get accumulator state
dicts back (see :meth:`~repro.protocols.base.Accumulator.state_dict`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from ..core.exceptions import ExecutionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..core.domain import Domain
    from ..protocols.base import Accumulator, MarginalReleaseProtocol

__all__ = ["ShardWork", "execute_shard", "execute_shard_state", "Executor"]


@dataclass(frozen=True)
class ShardWork:
    """One shard's aggregation work: batches plus their dedicated generators.

    ``batches[i]`` is an ``(n_i, d)`` 0/1 record chunk and ``rngs[i]`` the
    child generator that chunk must be perturbed with.  The pairing is part
    of the determinism contract: whichever backend (or worker) evaluates the
    unit consumes exactly the same random streams as the serial driver.
    """

    protocol: "MarginalReleaseProtocol"
    domain: "Domain"
    batches: Tuple[np.ndarray, ...]
    rngs: Tuple[np.random.Generator, ...]

    def __post_init__(self):
        if not self.batches:
            raise ExecutionError("a shard work unit needs at least one batch")
        if len(self.batches) != len(self.rngs):
            raise ExecutionError(
                f"got {len(self.batches)} batches but {len(self.rngs)} "
                f"generators; each batch needs its own generator"
            )


def execute_shard(work: ShardWork) -> "Accumulator":
    """Encode a shard's batches and fold them into one fresh accumulator.

    The single evaluation rule shared by every backend: batches are encoded
    in assignment order, each with its own generator, and each encoded
    batch is checked against the spec before it folds.
    """
    accumulator = work.protocol.accumulator(work.domain)
    for batch, rng in zip(work.batches, work.rngs):
        reports = work.protocol.encode_batch(batch, rng=rng)
        work.protocol.check_reports(reports, work.domain)
        accumulator.update(reports)
    return accumulator


def execute_shard_state(work: ShardWork) -> Dict:
    """Evaluate a shard and return its picklable accumulator state.

    Module-level so multiprocessing pools can pickle it by reference; the
    driver restores the state with
    ``protocol.accumulator(domain).load_state(state)``.
    """
    return execute_shard(work).state_dict()


class Executor(abc.ABC):
    """Schedules shard work units onto some pool of workers.

    Subclasses implement :meth:`_run`; the public :meth:`run_shards` wraps it
    with validation.  Executors may hold worker pools open across calls (the
    experiment harness reuses one executor for a whole sweep), so callers
    that create one should :meth:`close` it — or use the executor as a
    context manager.
    """

    #: Machine-readable backend name (the CLI's ``--executor`` values).
    name: str = "abstract"

    def __init__(self, workers: int = 1):
        workers = int(workers)
        if workers < 1:
            raise ExecutionError(f"worker count must be >= 1, got {workers}")
        self._workers = workers

    @property
    def workers(self) -> int:
        """Maximum number of shard evaluations running concurrently."""
        return self._workers

    def run_shards(self, works: Sequence[ShardWork]) -> List["Accumulator"]:
        """Evaluate every work unit; returns the accumulators in shard order."""
        works = list(works)
        if not works:
            raise ExecutionError("run_shards needs at least one work unit")
        return self._run(works)

    @abc.abstractmethod
    def _run(self, works: List[ShardWork]) -> List["Accumulator"]:
        """Backend-specific part of :meth:`run_shards`."""

    def close(self) -> None:
        """Release any worker pool; safe to call more than once."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(workers={self._workers})"
