"""Unit tests for the execution backends and the accumulator state contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import AggregationError, ExecutionError
from repro.core.privacy import PrivacyBudget
from repro.datasets import BinaryDataset
from repro.execution import (
    EXECUTOR_CLASSES,
    ProcessExecutor,
    SerialExecutor,
    ShardWork,
    available_executors,
    execute_shard,
    execute_shard_state,
    make_executor,
    resolve_executor,
)
from repro.protocols.registry import PROTOCOL_CLASSES, make_protocol

LN3 = float(np.log(3.0))

#: Smaller sketch so the InpHTCMS cases stay fast at test scale.
PROTOCOL_OPTIONS = {"InpHTCMS": {"num_hashes": 3, "width": 32}}

ALL_PROTOCOLS = sorted(PROTOCOL_CLASSES)


def build(name: str):
    options = PROTOCOL_OPTIONS.get(name, {})
    return make_protocol(name, PrivacyBudget(LN3), 2, **options)


@pytest.fixture(scope="module")
def dataset() -> BinaryDataset:
    rng = np.random.default_rng(41)
    records = (rng.random((400, 4)) < 0.5).astype(np.int8)
    return BinaryDataset.from_records(records)


def make_works(protocol, dataset, num_shards=2, batches_per_shard=2):
    """Carve the dataset into shard work units with per-batch generators."""
    chunk = dataset.size // (num_shards * batches_per_shard)
    works = []
    seed = 0
    for shard in range(num_shards):
        batches, rngs = [], []
        for _ in range(batches_per_shard):
            start = seed * chunk
            batches.append(dataset.records[start : start + chunk])
            rngs.append(np.random.default_rng(1000 + seed))
            seed += 1
        works.append(
            ShardWork(
                protocol=protocol,
                domain=dataset.domain,
                batches=tuple(batches),
                rngs=tuple(rngs),
            )
        )
    return works


class TestRegistry:
    def test_available_executors(self):
        assert available_executors() == ["process", "serial"]

    def test_make_executor_by_name(self):
        for name, cls in EXECUTOR_CLASSES.items():
            executor = make_executor(name, workers=2)
            assert isinstance(executor, cls)
            assert executor.workers == 2
            executor.close()

    def test_make_executor_rejects_unknown_name(self):
        with pytest.raises(ExecutionError, match="unknown executor"):
            make_executor("gpu")

    def test_worker_count_must_be_positive(self):
        for name in available_executors():
            with pytest.raises(ExecutionError, match="worker count"):
                make_executor(name, workers=0)

    def test_resolve_executor(self):
        assert isinstance(resolve_executor(None), SerialExecutor)
        assert isinstance(resolve_executor("process"), ProcessExecutor)
        instance = SerialExecutor()
        assert resolve_executor(instance) is instance
        with pytest.raises(ExecutionError):
            resolve_executor(42)

    def test_process_executor_rejects_unknown_start_method(self):
        with pytest.raises(ExecutionError, match="start method"):
            ProcessExecutor(workers=1, start_method="teleport")


class TestShardWork:
    def test_rejects_empty_work(self, dataset):
        protocol = build("InpPS")
        with pytest.raises(ExecutionError, match="at least one batch"):
            ShardWork(
                protocol=protocol, domain=dataset.domain, batches=(), rngs=()
            )

    def test_rejects_mismatched_generators(self, dataset):
        protocol = build("InpPS")
        with pytest.raises(ExecutionError, match="its own generator"):
            ShardWork(
                protocol=protocol,
                domain=dataset.domain,
                batches=(dataset.records,),
                rngs=(),
            )

    def test_execute_shard_folds_batches_in_order(self, dataset):
        protocol = build("InpPS")
        work = make_works(protocol, dataset, num_shards=1, batches_per_shard=4)[0]
        accumulator = execute_shard(work)
        assert accumulator.num_reports == sum(len(b) for b in work.batches)

        # Same batches, same per-batch seeds -> bit-identical estimates.
        reference = protocol.accumulator(dataset.domain)
        for position, batch in enumerate(work.batches):
            reference.update(
                protocol.encode_batch(
                    batch, rng=np.random.default_rng(1000 + position)
                )
            )
        for beta, table in reference.finalize().query_all().items():
            np.testing.assert_array_equal(
                table.values, accumulator.finalize().query(beta).values
            )


class TestRunShards:
    @pytest.mark.parametrize("name", ["serial", "process"])
    def test_backends_match_direct_evaluation(self, dataset, name):
        protocol = build("MargPS")
        # Two identical work lists: generators are stateful and consumed by
        # evaluation, so each side gets its own copies seeded the same way.
        expected = [
            execute_shard(work) for work in make_works(protocol, dataset)
        ]
        with make_executor(name, workers=2) as executor:
            observed = executor.run_shards(make_works(protocol, dataset))
        assert len(observed) == len(expected)
        for left, right in zip(expected, observed):
            assert left.num_reports == right.num_reports
            for beta, table in left.finalize().query_all().items():
                np.testing.assert_array_equal(
                    table.values, right.finalize().query(beta).values
                )

    def test_empty_work_list_is_rejected(self):
        with pytest.raises(ExecutionError, match="at least one work unit"):
            SerialExecutor().run_shards([])

    def test_close_is_idempotent_and_pool_restarts(self, dataset):
        protocol = build("InpHT")
        works = make_works(protocol, dataset)
        executor = ProcessExecutor(workers=2)
        executor.run_shards(works)
        executor.close()
        executor.close()
        # A closed executor lazily re-creates its pool on the next call.
        assert len(executor.run_shards(works)) == len(works)
        executor.close()


class TestStateContract:
    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_state_round_trip_preserves_estimates(self, name, dataset):
        protocol = build(name)
        rng = np.random.default_rng(7)
        original = protocol.accumulator(dataset.domain).update(
            protocol.encode_batch(dataset.records, rng=rng)
        )
        state = original.state_dict()
        assert state["num_reports"] == dataset.size
        restored = protocol.accumulator(dataset.domain).load_state(state)
        assert restored.num_reports == original.num_reports
        for beta, table in original.finalize().query_all().items():
            np.testing.assert_array_equal(
                table.values, restored.finalize().query(beta).values
            )

    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_state_survives_pickling(self, name, dataset):
        import pickle

        protocol = build(name)
        rng = np.random.default_rng(7)
        original = protocol.accumulator(dataset.domain).update(
            protocol.encode_batch(dataset.records, rng=rng)
        )
        blob = pickle.dumps(original.state_dict())
        restored = protocol.accumulator(dataset.domain).load_state(
            pickle.loads(blob)
        )
        for beta, table in original.finalize().query_all().items():
            np.testing.assert_array_equal(
                table.values, restored.finalize().query(beta).values
            )

    def test_load_state_requires_fresh_accumulator(self, dataset):
        protocol = build("InpPS")
        rng = np.random.default_rng(7)
        used = protocol.accumulator(dataset.domain).update(
            protocol.encode_batch(dataset.records, rng=rng)
        )
        with pytest.raises(AggregationError, match="fresh accumulator"):
            used.load_state(used.state_dict())

    def test_load_state_rejects_missing_report_count(self, dataset):
        protocol = build("InpPS")
        state = protocol.accumulator(dataset.domain).state_dict()
        del state["num_reports"]
        with pytest.raises(AggregationError, match="num_reports"):
            protocol.accumulator(dataset.domain).load_state(state)

    def test_load_state_rejects_negative_report_count(self, dataset):
        protocol = build("InpPS")
        state = protocol.accumulator(dataset.domain).state_dict()
        state["num_reports"] = -3
        with pytest.raises(AggregationError, match="negative"):
            protocol.accumulator(dataset.domain).load_state(state)

    def test_load_state_rejects_wrong_shape(self, dataset):
        protocol = build("InpPS")
        rng = np.random.default_rng(7)
        state = (
            protocol.accumulator(dataset.domain)
            .update(protocol.encode_batch(dataset.records, rng=rng))
            .state_dict()
        )
        state["counts"] = state["counts"][:-1]
        with pytest.raises(AggregationError, match="shape"):
            protocol.accumulator(dataset.domain).load_state(state)

    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_load_state_rejects_missing_field(self, name, dataset):
        """Every protocol reports a gutted state as an AggregationError."""
        protocol = build(name)
        state = protocol.accumulator(dataset.domain).state_dict()
        field = next(key for key in state if key != "num_reports")
        del state[field]
        with pytest.raises(AggregationError, match="missing the field"):
            protocol.accumulator(dataset.domain).load_state(state)

    @pytest.mark.parametrize("name", ["serial", "process"])
    def test_caller_generator_side_effects_match_serial(self, dataset, name):
        """Backends are interchangeable even for the caller's rng state.

        With ``batch_size=None`` the caller's own generator encodes the
        single batch.  The process backend consumes a pickled copy in the
        worker, so it must fast-forward the driver-side generator to the
        worker's final state — otherwise a caller reusing the generator
        (e.g. the sweep harness, protocol after protocol) would diverge
        from the serial backend.
        """
        protocol = build("InpHT")
        baseline = np.random.default_rng(5)
        protocol.run_streaming(dataset, rng=baseline)
        other = np.random.default_rng(5)
        with make_executor(name, workers=2) as executor:
            protocol.run_streaming(dataset, rng=other, executor=executor)
        assert baseline.bit_generator.state == other.bit_generator.state
        assert baseline.integers(0, 2**31) == other.integers(0, 2**31)

    def test_execute_shard_state_is_restorable(self, dataset):
        protocol = build("MargHT")
        state = execute_shard_state(
            make_works(protocol, dataset, num_shards=1)[0]
        )
        restored = protocol.accumulator(dataset.domain).load_state(state)
        direct = execute_shard(make_works(protocol, dataset, num_shards=1)[0])
        for beta, table in direct.finalize().query_all().items():
            np.testing.assert_array_equal(
                table.values, restored.finalize().query(beta).values
            )
