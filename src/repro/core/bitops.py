"""Bit-vector algebra over the Boolean hypercube ``{0,1}^d``.

The paper indexes everything — user records, marginal identifiers ``beta``,
marginal cells ``gamma`` and Hadamard coefficients ``alpha`` — by elements of
``{0,1}^d`` represented here as Python/numpy integers whose binary expansion
gives the attribute pattern.  Bit ``j`` (value ``1 << j``) corresponds to
attribute ``j``.

This module provides the small but heavily used algebra on those masks:

* ``popcount`` — the weight ``|beta|`` of a mask (number of attributes);
* the subset relation ``alpha ⪯ beta`` (written ``is_subset``);
* enumeration of submasks of a mask and of all masks of a given weight;
* compression/expansion between the ``d``-bit index space of the full domain
  and the ``k``-bit index space of a marginal over the attributes in ``beta``;
* parity inner products ``<i, j>`` used by the Hadamard transform.

Everything is vectorised so that a whole population of ``N`` user indices can
be processed with a handful of numpy operations.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

import numpy as np

from .backends import (
    HAS_BITWISE_COUNT,
    _popcount_swar,
    resolve_backend,
)

__all__ = [
    "popcount",
    "parity",
    "inner_product_sign",
    "is_subset",
    "submasks",
    "strict_submasks",
    "masks_of_weight",
    "masks_up_to_weight",
    "bit_positions",
    "mask_from_positions",
    "compress_index",
    "expand_index",
    "compress_indices",
    "expand_indices",
    "iterate_assignments",
]


def popcount(values):
    """Number of set bits of ``values`` (scalar int or integer array).

    Array inputs go through this machine's kernel backend
    (:func:`repro.core.backends.resolve_backend`): the numpy backend uses
    ``np.bitwise_count`` where available and a SWAR fold over 64-bit words
    otherwise (``native`` shares it).  Plain Python ints defer to
    ``int.bit_count``.
    """
    if np.isscalar(values) and not isinstance(values, np.generic):
        return int(values).bit_count()
    arr = np.asarray(values)
    if arr.dtype == object:
        return np.vectorize(lambda v: int(v).bit_count(), otypes=[np.int64])(arr)
    words = arr.astype(np.uint64)
    count = resolve_backend().popcount(words)
    return count if count.shape else int(count)


def parity(values):
    """Parity (0/1) of the number of set bits in ``values``.

    Arrays are folded with six XOR shifts (no popcount needed) by the
    machine's kernel backend; scalars use ``int.bit_count``.
    """
    if np.isscalar(values) and not isinstance(values, np.generic):
        return int(values).bit_count() & 1
    arr = np.asarray(values)
    if arr.dtype == object:
        return popcount(arr) & 1
    result = resolve_backend().parity(arr.astype(np.uint64))
    return result if result.shape else int(result)


def inner_product_sign(i, j):
    """The Hadamard sign ``(-1)^{<i, j>}`` where ``<i,j> = popcount(i & j)``.

    Accepts scalars or arrays (broadcasting like numpy); returns ``+1``/``-1``
    as ``int`` or ``int8`` array.
    """
    if np.isscalar(i) and np.isscalar(j):
        return 1 - 2 * (popcount(int(i) & int(j)) & 1)
    i_arr = np.asarray(i, dtype=np.int64)
    j_arr = np.asarray(j, dtype=np.int64)
    par = parity(i_arr & j_arr)
    return (1 - 2 * par).astype(np.int8)


def is_subset(alpha, beta) -> bool:
    """Whether ``alpha ⪯ beta``: every set bit of ``alpha`` is set in ``beta``."""
    if np.isscalar(alpha) and np.isscalar(beta):
        return (int(alpha) & int(beta)) == int(alpha)
    alpha_arr = np.asarray(alpha, dtype=np.int64)
    beta_arr = np.asarray(beta, dtype=np.int64)
    return (alpha_arr & beta_arr) == alpha_arr


def submasks(beta: int) -> Iterator[int]:
    """Yield every submask of ``beta`` (including 0 and ``beta`` itself).

    Uses the classic ``sub = (sub - 1) & beta`` enumeration, which visits the
    ``2^{|beta|}`` submasks in decreasing numeric order before yielding 0.
    """
    beta = int(beta)
    sub = beta
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & beta


def strict_submasks(beta: int) -> Iterator[int]:
    """Yield every submask of ``beta`` except ``beta`` itself."""
    for sub in submasks(beta):
        if sub != beta:
            yield sub


def masks_of_weight(d: int, k: int) -> List[int]:
    """All masks in ``{0,1}^d`` with exactly ``k`` set bits, ascending.

    This is the set of identifiers of the ``C(d, k)`` distinct k-way
    marginals over ``d`` attributes.
    """
    if k < 0 or k > d:
        return []
    if k == 0:
        return [0]
    masks: List[int] = []
    # Gosper's hack: iterate over k-subsets of a d-bit universe in order.
    mask = (1 << k) - 1
    limit = 1 << d
    while mask < limit:
        masks.append(mask)
        c = mask & -mask
        r = mask + c
        mask = (((r ^ mask) >> 2) // c) | r
    return masks


def masks_up_to_weight(d: int, k: int, include_zero: bool = False) -> List[int]:
    """All masks in ``{0,1}^d`` with weight between 1 (or 0) and ``k``.

    With ``include_zero=False`` this is the paper's coefficient set
    ``T = {alpha : 1 <= |alpha| <= k}`` of size ``sum_{l=1..k} C(d, l)``.
    """
    masks: List[int] = [0] if include_zero else []
    for weight in range(1, min(k, d) + 1):
        masks.extend(masks_of_weight(d, weight))
    return masks


def bit_positions(mask: int) -> List[int]:
    """The sorted list of positions of set bits in ``mask``."""
    mask = int(mask)
    positions: List[int] = []
    pos = 0
    while mask:
        if mask & 1:
            positions.append(pos)
        mask >>= 1
        pos += 1
    return positions


def mask_from_positions(positions: Sequence[int]) -> int:
    """Build a mask from an iterable of bit positions."""
    mask = 0
    for pos in positions:
        if pos < 0:
            raise ValueError(f"bit position must be non-negative, got {pos}")
        mask |= 1 << int(pos)
    return mask


def compress_index(index: int, beta: int) -> int:
    """Project a d-bit ``index`` onto the attributes of ``beta``.

    The result is a ``|beta|``-bit integer whose bit ``r`` equals the bit of
    ``index`` at the position of the ``r``-th set bit of ``beta`` (from least
    significant).  In the paper's notation this maps the cell
    ``gamma = index AND beta`` of a marginal to its position in the compact
    ``2^k`` representation of that marginal.
    """
    index = int(index)
    beta = int(beta)
    result = 0
    out_bit = 0
    pos = 0
    while beta >> pos:
        if (beta >> pos) & 1:
            if (index >> pos) & 1:
                result |= 1 << out_bit
            out_bit += 1
        pos += 1
    return result


def expand_index(compact: int, beta: int) -> int:
    """Inverse of :func:`compress_index`: scatter a ``|beta|``-bit value back
    onto the bit positions of ``beta`` inside ``{0,1}^d``."""
    compact = int(compact)
    beta = int(beta)
    result = 0
    in_bit = 0
    pos = 0
    while beta >> pos:
        if (beta >> pos) & 1:
            if (compact >> in_bit) & 1:
                result |= 1 << pos
            in_bit += 1
        pos += 1
    return result


def compress_indices(indices, beta: int) -> np.ndarray:
    """Vectorised :func:`compress_index` over an integer array."""
    indices = np.asarray(indices, dtype=np.int64)
    beta = int(beta)
    result = np.zeros(indices.shape, dtype=np.int64)
    out_bit = 0
    pos = 0
    while beta >> pos:
        if (beta >> pos) & 1:
            result |= ((indices >> pos) & 1) << out_bit
            out_bit += 1
        pos += 1
    return result


def expand_indices(compacts, beta: int) -> np.ndarray:
    """Vectorised :func:`expand_index` over an integer array."""
    compacts = np.asarray(compacts, dtype=np.int64)
    beta = int(beta)
    result = np.zeros(compacts.shape, dtype=np.int64)
    in_bit = 0
    pos = 0
    while beta >> pos:
        if (beta >> pos) & 1:
            result |= ((compacts >> in_bit) & 1) << pos
            in_bit += 1
        pos += 1
    return result


def iterate_assignments(beta: int) -> Iterator[int]:
    """Yield the ``2^{|beta|}`` cells ``gamma ⪯ beta`` of marginal ``beta``.

    Cells are produced in the order of their compact index, i.e. the ``r``-th
    yielded value is ``expand_index(r, beta)``.
    """
    k = popcount(beta)
    for compact in range(1 << k):
        yield expand_index(compact, beta)
