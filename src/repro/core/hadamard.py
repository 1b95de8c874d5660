"""Hadamard (Walsh--Fourier) transform substrate.

The discrete Fourier transform over the Boolean hypercube is the engine
behind the paper's strongest protocols (``InpHT`` and ``MargHT``).  For a
vector ``t`` indexed by ``{0,1}^d`` the (orthonormal) Hadamard transform is

    theta[alpha] = 2^{-d/2} * sum_eta (-1)^{<alpha, eta>} t[eta]

Throughout the library we prefer the *scaled* coefficients

    Theta[alpha] = 2^{d/2} * theta[alpha] = sum_eta (-1)^{<alpha, eta>} t[eta]

because for a normalised distribution ``t`` (``sum t = 1``) every scaled
coefficient lies in ``[-1, 1]`` and ``Theta[0] == 1``, and for a single user's
one-hot input the coefficient is exactly ``(-1)^{<alpha, j>}`` — the single
``{-1,+1}`` bit each user perturbs under randomized response.

Lemma 3.7 of the paper (due to Barak et al.) states that any k-way marginal
``beta`` is a linear combination of only the coefficients ``alpha ⪯ beta``.
In scaled form, for each cell ``gamma ⪯ beta``:

    C_beta(t)[gamma] = 2^{-k} * sum_{alpha ⪯ beta} (-1)^{<alpha, gamma>} Theta[alpha]

which is itself a (scaled) inverse Hadamard transform of size ``2^k``.  This
module implements the fast transform, per-coefficient evaluation, and the
marginal reconstruction formula.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

import numpy as np

from . import bitops
from .exceptions import MarginalQueryError

__all__ = [
    "fwht",
    "fwht_rows",
    "fwht_inverse",
    "scaled_coefficients",
    "distribution_from_scaled_coefficients",
    "single_scaled_coefficient",
    "coefficient_index_set",
    "coefficients_for_marginal",
    "marginal_from_scaled_coefficients",
    "user_coefficient_values",
]


def fwht(vector: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard transform (unnormalised).

    Returns ``H @ vector`` where ``H[i, j] = (-1)^{<i, j>}``, computed in
    ``O(n log n)`` for ``n = 2^d``.  The input is not modified.

    Each of the ``log2 n`` butterfly stages runs as one reshaped whole-array
    numpy operation (no Python loop over blocks); every output element is the
    same single add/subtract of the same operands as a blockwise loop, so
    the two are bit-for-bit identical.
    """
    vec = np.array(vector, dtype=np.float64, copy=True)
    n = vec.shape[0]
    if n == 0 or (n & (n - 1)) != 0:
        raise ValueError(f"fwht requires a power-of-two length, got {n}")
    h = 1
    while h < n:
        blocks = vec.reshape(-1, 2, h)
        top = blocks[:, 0, :] + blocks[:, 1, :]
        bottom = blocks[:, 0, :] - blocks[:, 1, :]
        blocks[:, 0, :] = top
        blocks[:, 1, :] = bottom
        h *= 2
    return vec


def fwht_rows(matrix: np.ndarray) -> np.ndarray:
    """Apply :func:`fwht` to every row of a 2-D array in one batched pass.

    Equivalent to ``np.stack([fwht(row) for row in matrix])`` — bit-for-bit,
    since each element undergoes the identical butterfly arithmetic — but the
    ``log2 n`` stages each run as a single numpy operation over the whole
    matrix.  Used by the HCMS sketch inversion (``g`` rows) and the MargHT
    finalisation (``C(d, k)`` rows).
    """
    mat = np.array(matrix, dtype=np.float64, copy=True)
    if mat.ndim != 2:
        raise ValueError(f"fwht_rows requires a 2-D array, got shape {mat.shape}")
    rows, n = mat.shape
    if n == 0 or (n & (n - 1)) != 0:
        raise ValueError(f"fwht_rows requires a power-of-two row length, got {n}")
    h = 1
    while h < n:
        blocks = mat.reshape(rows, -1, 2, h)
        top = blocks[:, :, 0, :] + blocks[:, :, 1, :]
        bottom = blocks[:, :, 0, :] - blocks[:, :, 1, :]
        blocks[:, :, 0, :] = top
        blocks[:, :, 1, :] = bottom
        h *= 2
    return mat


def fwht_inverse(vector: np.ndarray) -> np.ndarray:
    """Inverse of :func:`fwht`: ``H^{-1} = H / n`` for the +/-1 matrix."""
    vec = np.asarray(vector, dtype=np.float64)
    n = vec.shape[0]
    return fwht(vec) / n


def scaled_coefficients(distribution: np.ndarray) -> np.ndarray:
    """All scaled coefficients ``Theta[alpha] = sum_eta (-1)^{<alpha,eta>} t[eta]``.

    For a probability distribution the output satisfies ``Theta[0] == 1`` and
    ``|Theta[alpha]| <= 1`` for all ``alpha``.
    """
    return fwht(distribution)


def distribution_from_scaled_coefficients(coefficients: np.ndarray) -> np.ndarray:
    """Invert :func:`scaled_coefficients` to recover the distribution."""
    return fwht_inverse(coefficients)


def single_scaled_coefficient(distribution: np.ndarray, alpha: int) -> float:
    """Evaluate one scaled coefficient without the full transform.

    Useful in tests and when only a handful of coefficients are needed.
    """
    n = distribution.shape[0]
    signs = bitops.inner_product_sign(np.arange(n), int(alpha)).astype(np.float64)
    return float(np.dot(signs, distribution))


def coefficient_index_set(d: int, k: int, include_zero: bool = False) -> np.ndarray:
    """The index set ``H_k``/``T`` of coefficients needed for k-way marginals.

    Returns the masks ``alpha`` with ``1 <= |alpha| <= k`` (plus 0 when
    ``include_zero``), as an ``int64`` array in ascending weight order.  This
    is the set each ``InpHT`` user samples from; its size is
    ``sum_{l=1..k} C(d, l)``.
    """
    if k < 0 or k > d:
        raise MarginalQueryError(f"marginal width k={k} outside [0, d={d}]")
    masks = bitops.masks_up_to_weight(d, k, include_zero=include_zero)
    return np.asarray(masks, dtype=np.int64)


def coefficients_for_marginal(beta: int) -> np.ndarray:
    """All coefficient indices ``alpha ⪯ beta`` (including 0), sorted ascending."""
    subs = sorted(bitops.submasks(int(beta)))
    return np.asarray(subs, dtype=np.int64)


def marginal_from_scaled_coefficients(
    beta: int, coefficients: Mapping[int, float] | np.ndarray
) -> np.ndarray:
    """Reconstruct the marginal ``C_beta`` from scaled Hadamard coefficients.

    Parameters
    ----------
    beta:
        Mask identifying the marginal's attributes (``k = |beta|``).
    coefficients:
        Either a mapping ``alpha -> Theta[alpha]`` defined at least on every
        ``alpha ⪯ beta``, or a dense array of scaled coefficients indexed by
        the full domain ``{0,1}^d``.

    Returns
    -------
    numpy.ndarray
        The marginal as a length ``2^k`` array indexed by the compact cell
        index (see :func:`repro.core.bitops.compress_index`).
    """
    beta = int(beta)
    k = bitops.popcount(beta)
    size = 1 << k

    # Gather the 2^k coefficients alpha ⪯ beta into compact order, where the
    # compact index of alpha is its compression onto beta's bit positions.
    compact_coeffs = np.zeros(size, dtype=np.float64)
    for alpha in bitops.submasks(beta):
        compact = bitops.compress_index(alpha, beta)
        if isinstance(coefficients, Mapping):
            if alpha not in coefficients:
                raise MarginalQueryError(
                    f"missing Hadamard coefficient {alpha:#x} for marginal {beta:#x}"
                )
            compact_coeffs[compact] = float(coefficients[alpha])
        else:
            compact_coeffs[compact] = float(np.asarray(coefficients)[alpha])

    # Because <alpha, gamma> over the full domain equals the inner product of
    # their compressions onto beta, the reconstruction is a size-2^k inverse
    # transform of the compacted coefficient vector.
    return fwht(compact_coeffs) / size


def user_coefficient_values(user_indices: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Per-user scaled coefficient values ``(-1)^{<alpha_i, j_i>}``.

    ``user_indices[i]`` is user ``i``'s one-hot position ``j_i`` and
    ``alphas[i]`` the coefficient that user sampled; the result is the
    ``{-1,+1}`` value that user would report before perturbation.
    """
    user_indices = np.asarray(user_indices, dtype=np.int64)
    alphas = np.asarray(alphas, dtype=np.int64)
    return bitops.inner_product_sign(user_indices, alphas).astype(np.float64)
