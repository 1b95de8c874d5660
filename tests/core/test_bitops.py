"""Unit tests for the bit-vector algebra."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import bitops

from ..oracles import parity_reference, popcount_reference


class TestPopcount:
    def test_scalar_values(self):
        assert bitops.popcount(0) == 0
        assert bitops.popcount(1) == 1
        assert bitops.popcount(0b1011) == 3
        assert bitops.popcount((1 << 20) - 1) == 20

    def test_array_values(self):
        values = np.array([0, 1, 3, 7, 255])
        assert bitops.popcount(values).tolist() == [0, 1, 2, 3, 8]

    def test_matches_python_bit_count(self):
        values = np.arange(512)
        expected = [int(v).bit_count() for v in values]
        assert bitops.popcount(values).tolist() == expected

    def test_fast_path_matches_reference(self):
        rng = np.random.default_rng(7)
        for values in (
            rng.integers(0, 1 << 16, size=4096),
            rng.integers(0, 1 << 62, size=4096),
            np.array([0, 1, (1 << 63) - 1, np.iinfo(np.int64).max]),
            np.uint64(2**64 - 1) - rng.integers(0, 64, size=128).astype(np.uint64),
        ):
            fast = bitops.popcount(values)
            reference = popcount_reference(values)
            np.testing.assert_array_equal(fast, reference)
            assert fast.dtype == reference.dtype

    def test_swar_fallback_matches_reference(self):
        rng = np.random.default_rng(11)
        words = rng.integers(0, 2**64, size=4096, dtype=np.uint64)
        np.testing.assert_array_equal(
            bitops._popcount_swar(words), popcount_reference(words)
        )

    def test_object_dtype_path(self):
        # Regression: arbitrary-precision Python ints (wider than 64 bits)
        # must fall back to int.bit_count, not be folded as 64-bit words.
        values = np.array([0, 1, (1 << 80) - 1, (1 << 200) | 0b101], dtype=object)
        result = bitops.popcount(values)
        assert result.dtype == np.int64
        assert result.tolist() == [0, 1, 80, 3]
        np.testing.assert_array_equal(result, popcount_reference(values))

    def test_zero_dim_numpy_scalar(self):
        assert bitops.popcount(np.int64(0b1011)) == 3
        assert isinstance(bitops.popcount(np.int64(7)), int)


class TestParityAndSigns:
    def test_parity_scalar(self):
        assert bitops.parity(0) == 0
        assert bitops.parity(0b111) == 1
        assert bitops.parity(0b1111) == 0

    def test_parity_fast_path_matches_reference(self):
        rng = np.random.default_rng(13)
        for values in (
            np.arange(1024),
            rng.integers(0, 1 << 62, size=4096),
            rng.integers(0, 2**64, size=4096, dtype=np.uint64),
            np.array([1 << 90, (1 << 70) | 1], dtype=object),
        ):
            fast = bitops.parity(values)
            np.testing.assert_array_equal(fast, parity_reference(values))

    def test_parity_scalar_type(self):
        assert isinstance(bitops.parity(6), int)
        assert isinstance(bitops.parity(np.int64(6)), int)

    def test_inner_product_sign_scalar(self):
        # <i, j> counts shared set bits: 0b110 & 0b011 = 0b010 -> odd -> -1.
        assert bitops.inner_product_sign(0b110, 0b011) == -1
        assert bitops.inner_product_sign(0b110, 0b110) == 1
        assert bitops.inner_product_sign(0, 0b1111) == 1

    def test_inner_product_sign_array_broadcast(self):
        i = np.arange(8)
        signs = bitops.inner_product_sign(i, 0b101)
        expected = [1 - 2 * (int(v).bit_count() & 1) for v in (i & 0b101)]
        assert signs.tolist() == expected

    def test_sign_symmetry(self):
        for i in range(16):
            for j in range(16):
                assert bitops.inner_product_sign(i, j) == bitops.inner_product_sign(j, i)


class TestSubsetRelation:
    def test_scalar_subset(self):
        assert bitops.is_subset(0b010, 0b110)
        assert bitops.is_subset(0, 0b110)
        assert bitops.is_subset(0b110, 0b110)
        assert not bitops.is_subset(0b001, 0b110)

    def test_array_subset(self):
        alphas = np.array([0b00, 0b01, 0b10, 0b11])
        result = bitops.is_subset(alphas, 0b10)
        assert result.tolist() == [True, False, True, False]


class TestSubmaskEnumeration:
    def test_submasks_of_zero(self):
        assert list(bitops.submasks(0)) == [0]

    def test_submasks_count(self):
        beta = 0b1011
        subs = list(bitops.submasks(beta))
        assert len(subs) == 8
        assert len(set(subs)) == 8
        assert all(bitops.is_subset(sub, beta) for sub in subs)

    def test_strict_submasks_excludes_self(self):
        beta = 0b101
        subs = list(bitops.strict_submasks(beta))
        assert beta not in subs
        assert len(subs) == 3


class TestWeightEnumeration:
    def test_masks_of_weight_counts(self):
        for d in (3, 5, 8):
            for k in range(d + 1):
                masks = bitops.masks_of_weight(d, k)
                assert len(masks) == math.comb(d, k)
                assert all(bitops.popcount(m) == k for m in masks)

    def test_masks_of_weight_sorted_unique(self):
        masks = bitops.masks_of_weight(6, 3)
        assert masks == sorted(set(masks))

    def test_masks_of_weight_out_of_range(self):
        assert bitops.masks_of_weight(4, 5) == []
        assert bitops.masks_of_weight(4, -1) == []
        assert bitops.masks_of_weight(4, 0) == [0]

    def test_masks_up_to_weight(self):
        masks = bitops.masks_up_to_weight(5, 2)
        assert len(masks) == 5 + 10
        assert 0 not in masks
        with_zero = bitops.masks_up_to_weight(5, 2, include_zero=True)
        assert with_zero[0] == 0
        assert len(with_zero) == 16


class TestPositions:
    def test_bit_positions_roundtrip(self):
        for mask in (0, 0b1, 0b1010, 0b11111, 1 << 12):
            positions = bitops.bit_positions(mask)
            assert bitops.mask_from_positions(positions) == mask

    def test_mask_from_positions_rejects_negative(self):
        with pytest.raises(ValueError):
            bitops.mask_from_positions([-1])


class TestCompression:
    def test_compress_expand_roundtrip(self):
        beta = 0b10110
        for compact in range(1 << 3):
            expanded = bitops.expand_index(compact, beta)
            assert bitops.is_subset(expanded, beta)
            assert bitops.compress_index(expanded, beta) == compact

    def test_compress_ignores_bits_outside_beta(self):
        beta = 0b0101
        assert bitops.compress_index(0b1111, beta) == bitops.compress_index(0b0101, beta)

    def test_vectorised_matches_scalar(self):
        beta = 0b11010
        indices = np.arange(32)
        vectorised = bitops.compress_indices(indices & beta, beta)
        scalar = [bitops.compress_index(int(i) & beta, beta) for i in indices]
        assert vectorised.tolist() == scalar

    def test_expand_indices_matches_scalar(self):
        beta = 0b01101
        compacts = np.arange(8)
        vectorised = bitops.expand_indices(compacts, beta)
        scalar = [bitops.expand_index(int(c), beta) for c in compacts]
        assert vectorised.tolist() == scalar


class TestIterateAssignments:
    def test_cells_cover_marginal(self):
        beta = 0b1101
        cells = list(bitops.iterate_assignments(beta))
        assert len(cells) == 8
        assert all(bitops.is_subset(cell, beta) for cell in cells)
        assert len(set(cells)) == 8

    def test_order_matches_compact_index(self):
        beta = 0b110
        cells = list(bitops.iterate_assignments(beta))
        assert cells == [bitops.expand_index(r, beta) for r in range(4)]
