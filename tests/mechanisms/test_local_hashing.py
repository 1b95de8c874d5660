"""Unit tests for the Optimised Local Hashing frequency oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.exceptions import ProtocolConfigurationError
from repro.core.privacy import PrivacyBudget
from repro.mechanisms.local_hashing import OptimizedLocalHashing, _hash


class TestHashFamily:
    def test_deterministic(self):
        values = np.arange(100)
        seeds = np.full(100, 12345)
        first = _hash(values, seeds, 4)
        second = _hash(values, seeds, 4)
        np.testing.assert_array_equal(first, second)

    def test_range(self):
        values = np.arange(1000)
        seeds = np.full(1000, 7)
        hashed = _hash(values, seeds, 4)
        assert hashed.min() >= 0 and hashed.max() < 4

    def test_roughly_uniform_over_seeds(self, rng):
        # For a fixed value, hashing with many random seeds should spread
        # roughly uniformly over the buckets.
        seeds = rng.integers(1, 2**60, size=50_000)
        hashed = _hash(np.full(50_000, 42), seeds, 4)
        fractions = np.bincount(hashed, minlength=4) / hashed.size
        np.testing.assert_allclose(fractions, np.full(4, 0.25), atol=0.02)


class TestConfiguration:
    def test_default_bucket_count(self):
        oracle = OptimizedLocalHashing(256, PrivacyBudget(math.log(3)))
        assert oracle.num_buckets == 4  # floor(e^eps) + 1 = 4

    def test_explicit_bucket_count(self):
        oracle = OptimizedLocalHashing(256, PrivacyBudget(1.0), num_buckets=8)
        assert oracle.num_buckets == 8

    def test_minimum_two_buckets(self):
        oracle = OptimizedLocalHashing(16, PrivacyBudget(0.05))
        assert oracle.num_buckets >= 2

    def test_rejects_small_domain(self):
        with pytest.raises(ProtocolConfigurationError):
            OptimizedLocalHashing(1, PrivacyBudget(1.0))


class TestEstimation:
    def test_perturb_shapes(self, rng):
        oracle = OptimizedLocalHashing(64, PrivacyBudget(1.1))
        values = rng.integers(0, 64, size=500)
        seeds, noisy = oracle.perturb(values, rng=rng)
        assert seeds.shape == (500,)
        assert noisy.shape == (500,)
        assert noisy.min() >= 0 and noisy.max() < oracle.num_buckets

    def test_rejects_out_of_range_values(self, rng):
        oracle = OptimizedLocalHashing(16, PrivacyBudget(1.0))
        with pytest.raises(ProtocolConfigurationError):
            oracle.perturb(np.array([16]), rng=rng)

    def test_empty_batch_yields_empty_reports(self, rng):
        oracle = OptimizedLocalHashing(16, PrivacyBudget(1.0))
        seeds, noisy = oracle.perturb(np.array([], dtype=int), rng=rng)
        assert seeds.shape == (0,)
        assert noisy.shape == (0,)

    def test_frequency_recovery_on_small_domain(self, rng):
        oracle = OptimizedLocalHashing(8, PrivacyBudget(math.log(3)))
        probabilities = np.array([0.4, 0.2, 0.15, 0.1, 0.05, 0.05, 0.03, 0.02])
        values = rng.choice(8, size=150_000, p=probabilities)
        seeds, noisy = oracle.perturb(values, rng=rng)
        estimates = oracle.estimate_frequencies(seeds, noisy)
        assert estimates.shape == (8,)
        np.testing.assert_allclose(estimates, probabilities, atol=0.03)

    def test_estimate_rejects_mismatched_reports(self):
        oracle = OptimizedLocalHashing(8, PrivacyBudget(1.0))
        with pytest.raises(ProtocolConfigurationError):
            oracle.estimate_frequencies(np.arange(5), np.arange(4))
