"""Protocol-conformance matrix for the parallel execution backends.

The determinism contract of the executor subsystem is that for a fixed seed
and batch size the finalized estimates depend on *nothing else*: not the
backend, not the worker count, not the shard count.  This suite pins that
contract as a full matrix — every registered protocol x every executor
backend x worker counts {1, 2, 4} x shard counts {4, 8} (8 is more than the
batches, so it is clamped) — asserting bit-for-bit equality against
the serial single-shard baseline (the same check the PR-1 mergeability
property tests make for in-process sharding, extended to real parallelism).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.privacy import PrivacyBudget
from repro.datasets import BinaryDataset
from repro.execution import available_executors, make_executor
from repro.protocols.registry import PROTOCOL_CLASSES, make_protocol

LN3 = float(np.log(3.0))

#: Smaller sketch so the InpHTCMS cases stay fast at test scale.
PROTOCOL_OPTIONS = {"InpHTCMS": {"num_hashes": 3, "width": 32}}

ALL_PROTOCOLS = sorted(PROTOCOL_CLASSES)
WORKER_COUNTS = (1, 2, 4)

SEED = 20180610
BATCH_SIZE = 100  # 600 records -> 6 batches, so 4 shards all receive work
NUM_BATCHES = 6
SHARDS = 4
#: Uneven shards (two of the four take two batches) and a request beyond
#: the batch count, which ``run_streaming`` clamps to one batch per shard.
SHARD_COUNTS = (SHARDS, 8)


def build(name: str):
    options = PROTOCOL_OPTIONS.get(name, {})
    return make_protocol(name, PrivacyBudget(LN3), 2, **options)


@pytest.fixture(scope="module")
def dataset() -> BinaryDataset:
    rng = np.random.default_rng(97)
    marginal_probs = rng.random(4) * 0.6 + 0.2
    records = (rng.random((600, 4)) < marginal_probs).astype(np.int8)
    return BinaryDataset.from_records(records)


@pytest.fixture(scope="module")
def baselines(dataset):
    """Serial single-shard estimates per protocol: the reference each
    parallel configuration must reproduce exactly."""
    tables = {}
    for name in ALL_PROTOCOLS:
        estimator = build(name).run_streaming(
            dataset,
            rng=np.random.default_rng(SEED),
            batch_size=BATCH_SIZE,
            shards=1,
        )
        tables[name] = {
            beta: table.values for beta, table in estimator.query_all().items()
        }
    return tables


@pytest.fixture(scope="module")
def executors():
    """One executor per (backend, workers) cell, shared across protocols so
    the process pools are forked once, not once per test."""
    cache = {}
    yield lambda name, workers: cache.setdefault(
        (name, workers), make_executor(name, workers)
    )
    for executor in cache.values():
        executor.close()


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("executor_name", sorted(available_executors()))
@pytest.mark.parametrize("name", ALL_PROTOCOLS)
def test_parallel_estimates_match_serial_baseline(
    name, executor_name, workers, shards, dataset, baselines, executors
):
    estimator = build(name).run_streaming(
        dataset,
        rng=np.random.default_rng(SEED),
        batch_size=BATCH_SIZE,
        shards=shards,
        executor=executors(executor_name, workers),
    )
    observed = {
        beta: table.values for beta, table in estimator.query_all().items()
    }
    expected = baselines[name]
    assert observed.keys() == expected.keys()
    for beta in expected:
        np.testing.assert_array_equal(observed[beta], expected[beta])
    assert estimator.metadata["executor"] == executor_name
    assert estimator.metadata["workers"] == workers
    assert estimator.metadata["num_batches"] == NUM_BATCHES
    assert estimator.metadata["requested_shards"] == shards
    assert estimator.metadata["effective_shards"] == min(shards, NUM_BATCHES)


@pytest.mark.parametrize("executor_name", sorted(available_executors()))
def test_worker_count_is_invisible_in_estimates(executor_name, dataset, executors):
    """Same backend, different worker counts -> identical estimates."""
    protocol = build("InpHT")
    results = []
    for workers in WORKER_COUNTS:
        estimator = protocol.run_streaming(
            dataset,
            rng=np.random.default_rng(11),
            batch_size=BATCH_SIZE,
            shards=SHARDS,
            executor=executors(executor_name, workers),
        )
        results.append(
            {beta: t.values for beta, t in estimator.query_all().items()}
        )
    first = results[0]
    for other in results[1:]:
        for beta in first:
            np.testing.assert_array_equal(first[beta], other[beta])
