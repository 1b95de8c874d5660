"""Property tests: the vectorised kernel fast paths equal their references.

Every optimised kernel keeps its pre-optimisation implementation around
(`popcount_reference`, `fwht_reference`, `support_counts_reference`, raw
noisy records for EM) and this suite proves the fast paths bit-for-bit
equal — or, for the end-to-end protocol decodes, that the finalized
estimates are exactly unchanged across kernels, batch sizes, shard counts
and execution backends.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitops, hadamard
from repro.core.backends import fold_buckets, resolve_backend
from repro.core.privacy import PrivacyBudget
from repro.datasets import BinaryDataset
from repro.execution import make_executor
from repro.mechanisms import local_hashing
from repro.mechanisms.local_hashing import OptimizedLocalHashing
from repro.protocols.inp_em import EMEstimator, InpEM
from repro.protocols.inp_olh import InpOLH
from repro.protocols.registry import make_protocol

from ..oracles import (
    fwht_reference,
    parity_reference,
    popcount_reference,
    support_counts_reference,
)

LN3 = float(np.log(3.0))


@pytest.fixture(scope="module")
def dataset() -> BinaryDataset:
    rng = np.random.default_rng(97)
    marginals_prob = rng.random(5) * 0.6 + 0.2
    records = (rng.random((1536, 5)) < marginals_prob).astype(np.int8)
    return BinaryDataset.from_records(records)


def all_tables(estimator):
    return {beta: table.values for beta, table in estimator.query_all().items()}


def assert_identical_estimates(left, right):
    left_tables, right_tables = all_tables(left), all_tables(right)
    assert left_tables.keys() == right_tables.keys()
    for beta in left_tables:
        np.testing.assert_array_equal(left_tables[beta], right_tables[beta])


class TestBitopsConformance:
    def test_popcount_random_words(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            width = int(rng.integers(1, 64))
            values = rng.integers(0, 1 << width, size=int(rng.integers(1, 2000)))
            np.testing.assert_array_equal(
                bitops.popcount(values), popcount_reference(values)
            )

    def test_parity_random_words(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            values = rng.integers(0, 2**64, size=1000, dtype=np.uint64)
            np.testing.assert_array_equal(
                bitops.parity(values), parity_reference(values)
            )

    def test_inner_product_sign_small_domain_exhaustive(self):
        i = np.arange(256)[:, None]
        j = np.arange(256)[None, :]
        signs = bitops.inner_product_sign(i, j)
        expected = 1 - 2 * (popcount_reference(i & j) & 1)
        np.testing.assert_array_equal(signs, expected)


class TestFwhtConformance:
    def test_fwht_random_vectors(self):
        rng = np.random.default_rng(8)
        for d in range(11):
            vector = rng.normal(size=1 << d)
            np.testing.assert_array_equal(
                hadamard.fwht(vector), fwht_reference(vector)
            )

    def test_fwht_rows_random_matrices(self):
        rng = np.random.default_rng(9)
        for rows, n in ((1, 1), (7, 64), (31, 256)):
            matrix = rng.normal(size=(rows, n))
            expected = np.stack([fwht_reference(row) for row in matrix])
            np.testing.assert_array_equal(hadamard.fwht_rows(matrix), expected)


class TestBucketFoldConformance:
    @settings(max_examples=300, deadline=None)
    @given(
        words=st.lists(st.integers(0, 2**64 - 1), max_size=64),
        num_buckets=st.integers(3, 2**64 - 1).filter(lambda g: g & (g - 1)),
    )
    def test_divide_fold_equals_modulo(self, words, num_buckets):
        """The divide-multiply-subtract fold is ``x % g`` over full-range
        ``uint64`` for every non-power-of-two ``g``, extremes included."""
        values = np.array(words + [0, 2**64 - 1, 2**63], dtype=np.uint64)
        expected = values % np.uint64(num_buckets)
        np.testing.assert_array_equal(
            fold_buckets(values.copy(), num_buckets), expected
        )
        scratch = np.empty_like(values)
        np.testing.assert_array_equal(
            fold_buckets(values.copy(), num_buckets, scratch), expected
        )


class TestOLHSupportConformance:
    @pytest.fixture(scope="class")
    def reports(self):
        rng = np.random.default_rng(12)
        oracle = OptimizedLocalHashing(domain_size=1 << 8, budget=PrivacyBudget(LN3))
        values = rng.integers(0, oracle.domain_size, size=3000)
        seeds, noisy = oracle.perturb(values, rng=rng)
        return oracle, seeds, noisy

    def test_fast_matches_reference(self, reports):
        oracle, seeds, noisy = reports
        reference = support_counts_reference(oracle, seeds, noisy)
        np.testing.assert_array_equal(
            oracle.support_counts(seeds, noisy), reference
        )

    @pytest.mark.parametrize("batch_size", [1, 3, 17, 256, 4096])
    def test_batch_size_is_invisible(self, reports, batch_size):
        oracle, seeds, noisy = reports
        np.testing.assert_array_equal(
            resolve_backend().support_counts(
                seeds, noisy, oracle.domain_size, oracle.num_buckets, batch_size
            ),
            support_counts_reference(oracle, seeds, noisy),
        )

    def test_empty_reports(self, reports):
        oracle, _, _ = reports
        empty = np.zeros(0, dtype=np.int64)
        np.testing.assert_array_equal(
            oracle.support_counts(empty, empty),
            np.zeros(oracle.domain_size),
        )

    @pytest.mark.parametrize("decode_batch_size", [1, 7, 100, 10_000])
    def test_protocol_decode_batch_size_is_invisible(
        self, dataset, decode_batch_size, monkeypatch
    ):
        """The scan block the backend is handed never shows in InpOLH's
        finalized estimates."""
        baseline = InpOLH(PrivacyBudget(LN3), 2).run(
            dataset, rng=np.random.default_rng(42)
        )
        monkeypatch.setattr(
            local_hashing, "DEFAULT_DECODE_BATCH_SIZE", decode_batch_size
        )
        blocked = InpOLH(PrivacyBudget(LN3), 2).run(
            dataset, rng=np.random.default_rng(42)
        )
        assert_identical_estimates(baseline, blocked)


class TestEMSufficientStatisticConformance:
    def test_histogram_decode_matches_record_decode(self, dataset):
        """The accumulator's 2^d histogram loses nothing the EM decode uses."""
        protocol = InpEM(PrivacyBudget(2.0))
        reports = protocol.encode_batch(dataset, rng=np.random.default_rng(3))
        domain = dataset.domain

        streamed = (
            protocol.accumulator(domain).update(reports).finalize()
        )
        from_records = EMEstimator.from_noisy_records(
            protocol.workload_for(domain),
            reports.noisy_records,
            keep_probability=protocol.per_attribute_mechanism(
                domain.dimension
            ).keep_probability,
            convergence_threshold=protocol.convergence_threshold,
            max_iterations=10000,
        )
        np.testing.assert_array_equal(
            streamed.pattern_counts, from_records.pattern_counts
        )
        for beta in streamed.workload.marginals():
            ours = streamed.query_with_diagnostics(beta)
            theirs = from_records.query_with_diagnostics(beta)
            np.testing.assert_array_equal(ours.table.values, theirs.table.values)
            assert ours.iterations == theirs.iterations
            assert ours.converged == theirs.converged
            assert ours.failed == theirs.failed

    def test_accumulator_memory_is_constant_in_users(self, dataset):
        """State is one 2^d int64 histogram regardless of report volume."""
        protocol = InpEM(PrivacyBudget(1.0))
        accumulator = protocol.accumulator(dataset.domain)
        rng = np.random.default_rng(4)
        for _ in range(5):
            accumulator.update(protocol.encode_batch(dataset, rng=rng))
        state = accumulator.state_dict()
        assert set(state) == {"pattern_counts", "num_reports"}
        assert state["pattern_counts"].shape == (dataset.domain.size,)
        assert state["pattern_counts"].dtype == np.int64
        assert state["pattern_counts"].sum() == 5 * dataset.size
        assert state["num_reports"] == 5 * dataset.size

    def test_likelihood_matrix_is_cached_across_queries(self, dataset):
        protocol = InpEM(PrivacyBudget(2.0))
        estimator = protocol.run(dataset, rng=np.random.default_rng(5))
        marginals = list(estimator.workload.marginals(2))
        estimator.query_with_diagnostics(marginals[0])
        cached = estimator._likelihood(2)
        for beta in marginals[1:]:
            estimator.query_with_diagnostics(beta)
        assert estimator._likelihood(2) is cached


class TestProtocolExecutorConformance:
    """The kernel fast paths are invisible across streaming/parallel drivers."""

    @pytest.mark.parametrize("name", ["InpEM", "InpOLH", "MargHT", "InpHTCMS"])
    @pytest.mark.parametrize("executor_name", ["serial", "process"])
    def test_streaming_parallel_unchanged(self, name, executor_name, dataset):
        options = {"InpHTCMS": {"num_hashes": 3, "width": 32}}.get(name, {})
        protocol = make_protocol(name, PrivacyBudget(LN3), 2, **options)
        baseline = protocol.run_streaming(
            dataset, rng=np.random.default_rng(20180610), batch_size=257, shards=3
        )
        with make_executor(executor_name, 2) as executor:
            parallel = protocol.run_streaming(
                dataset,
                rng=np.random.default_rng(20180610),
                batch_size=257,
                shards=3,
                executor=executor,
            )
        assert_identical_estimates(baseline, parallel)
