"""Unit tests for the Hadamard transform substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import bitops, hadamard
from repro.core.exceptions import MarginalQueryError

from ..oracles import fwht_reference


def brute_force_transform(vector: np.ndarray) -> np.ndarray:
    """Direct O(n^2) evaluation of the unnormalised +/-1 transform."""
    n = vector.shape[0]
    matrix = np.array(
        [[bitops.inner_product_sign(i, j) for j in range(n)] for i in range(n)],
        dtype=np.float64,
    )
    return matrix @ vector


class TestFwht:
    def test_matches_brute_force(self, rng):
        for d in (1, 2, 3, 4):
            vector = rng.normal(size=1 << d)
            np.testing.assert_allclose(
                hadamard.fwht(vector), brute_force_transform(vector), atol=1e-9
            )

    def test_involution_up_to_scale(self, rng):
        vector = rng.normal(size=16)
        twice = hadamard.fwht(hadamard.fwht(vector))
        np.testing.assert_allclose(twice, 16 * vector, atol=1e-9)

    def test_inverse_roundtrip(self, rng):
        vector = rng.normal(size=32)
        np.testing.assert_allclose(
            hadamard.fwht_inverse(hadamard.fwht(vector)), vector, atol=1e-9
        )

    def test_matches_reference_bit_for_bit(self, rng):
        # The reshape-based butterfly performs the identical per-element
        # add/subtract as the blockwise reference, so equality is exact.
        for d in (0, 1, 2, 5, 10, 14):
            vector = rng.normal(size=1 << d)
            np.testing.assert_array_equal(
                hadamard.fwht(vector), fwht_reference(vector)
            )

    def test_input_not_modified(self, rng):
        vector = rng.normal(size=64)
        original = vector.copy()
        hadamard.fwht(vector)
        np.testing.assert_array_equal(vector, original)


class TestFwhtRows:
    def test_matches_per_row_fwht_bit_for_bit(self, rng):
        for rows, n in ((1, 16), (5, 256), (64, 1024), (3, 1)):
            matrix = rng.normal(size=(rows, n))
            expected = np.stack([fwht_reference(row) for row in matrix])
            np.testing.assert_array_equal(hadamard.fwht_rows(matrix), expected)

    def test_input_not_modified(self, rng):
        matrix = rng.normal(size=(4, 32))
        original = matrix.copy()
        hadamard.fwht_rows(matrix)
        np.testing.assert_array_equal(matrix, original)

    def test_rejects_non_2d(self, rng):
        with pytest.raises(ValueError):
            hadamard.fwht_rows(rng.normal(size=8))
        with pytest.raises(ValueError):
            hadamard.fwht_rows(rng.normal(size=(2, 2, 2)))

    def test_rejects_non_power_of_two_rows(self, rng):
        with pytest.raises(ValueError):
            hadamard.fwht_rows(rng.normal(size=(3, 12)))
        with pytest.raises(ValueError):
            hadamard.fwht_rows(np.zeros((2, 0)))

    def test_does_not_modify_input(self, rng):
        vector = rng.normal(size=8)
        copy = vector.copy()
        hadamard.fwht(vector)
        np.testing.assert_array_equal(vector, copy)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            hadamard.fwht(np.ones(6))
        with pytest.raises(ValueError):
            hadamard.fwht(np.ones(0))

    def test_parseval(self, rng):
        # The orthonormal transform (fwht / sqrt(n)) preserves the 2-norm.
        vector = rng.normal(size=64)
        transformed = hadamard.fwht(vector) / np.sqrt(64)
        assert np.linalg.norm(transformed) == pytest.approx(np.linalg.norm(vector))


class TestScaledCoefficients:
    def test_constant_coefficient_is_one_for_distributions(self, rng):
        distribution = rng.random(16)
        distribution /= distribution.sum()
        coefficients = hadamard.scaled_coefficients(distribution)
        assert coefficients[0] == pytest.approx(1.0)
        assert np.all(np.abs(coefficients) <= 1.0 + 1e-9)

    def test_roundtrip(self, rng):
        distribution = rng.random(32)
        distribution /= distribution.sum()
        coefficients = hadamard.scaled_coefficients(distribution)
        recovered = hadamard.distribution_from_scaled_coefficients(coefficients)
        np.testing.assert_allclose(recovered, distribution, atol=1e-12)

    def test_single_coefficient_matches_full_transform(self, rng):
        distribution = rng.random(16)
        distribution /= distribution.sum()
        full = hadamard.scaled_coefficients(distribution)
        for alpha in range(16):
            assert hadamard.single_scaled_coefficient(
                distribution, alpha
            ) == pytest.approx(full[alpha])

    def test_one_hot_coefficients_are_signs(self):
        # A single user's one-hot vector has coefficient (-1)^{<alpha, j>}.
        j = 5
        one_hot = np.zeros(8)
        one_hot[j] = 1.0
        coefficients = hadamard.scaled_coefficients(one_hot)
        for alpha in range(8):
            assert coefficients[alpha] == bitops.inner_product_sign(alpha, j)


class TestCoefficientIndexSet:
    def test_size_formula(self):
        import math

        for d, k in ((4, 2), (8, 2), (8, 3), (6, 6)):
            expected = sum(math.comb(d, level) for level in range(1, k + 1))
            assert hadamard.coefficient_index_set(d, k).size == expected

    def test_excludes_zero_by_default(self):
        assert 0 not in hadamard.coefficient_index_set(5, 2)
        assert 0 in hadamard.coefficient_index_set(5, 2, include_zero=True)

    def test_rejects_bad_width(self):
        with pytest.raises(MarginalQueryError):
            hadamard.coefficient_index_set(4, 5)
        with pytest.raises(MarginalQueryError):
            hadamard.coefficient_index_set(4, -1)

    def test_coefficients_for_marginal(self):
        beta = 0b1010
        alphas = hadamard.coefficients_for_marginal(beta)
        assert alphas.tolist() == [0b0000, 0b0010, 0b1000, 0b1010]


class TestMarginalFromCoefficients:
    def test_matches_direct_marginalisation(self, rng):
        from repro.core.domain import Domain
        from repro.core.marginals import marginal_operator

        d = 4
        domain = Domain.binary(d)
        distribution = rng.random(1 << d)
        distribution /= distribution.sum()
        coefficients = hadamard.scaled_coefficients(distribution)
        for beta in (0b0011, 0b1010, 0b1111, 0b0100):
            expected = marginal_operator(distribution, beta, domain).values
            reconstructed = hadamard.marginal_from_scaled_coefficients(
                beta, coefficients
            )
            np.testing.assert_allclose(reconstructed, expected, atol=1e-10)

    def test_accepts_mapping(self, rng):
        distribution = rng.random(8)
        distribution /= distribution.sum()
        coefficients = hadamard.scaled_coefficients(distribution)
        beta = 0b101
        mapping = {alpha: coefficients[alpha] for alpha in bitops.submasks(beta)}
        from_map = hadamard.marginal_from_scaled_coefficients(beta, mapping)
        from_array = hadamard.marginal_from_scaled_coefficients(beta, coefficients)
        np.testing.assert_allclose(from_map, from_array)

    def test_missing_coefficient_raises(self):
        with pytest.raises(MarginalQueryError):
            hadamard.marginal_from_scaled_coefficients(0b11, {0: 1.0, 1: 0.2})


class TestUserCoefficientValues:
    def test_values_are_signs(self, rng):
        indices = rng.integers(0, 16, size=100)
        alphas = rng.integers(0, 16, size=100)
        values = hadamard.user_coefficient_values(indices, alphas)
        assert set(np.unique(values)).issubset({-1.0, 1.0})
        for index, alpha, value in zip(indices, alphas, values):
            assert value == bitops.inner_product_sign(int(index), int(alpha))
