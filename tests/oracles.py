"""Reference implementations the fast code paths are proven against.

Each oracle is the plain, obviously-correct form of a kernel or codec step:
the one-bit-per-pass popcount, the butterfly-loop Walsh-Hadamard transform,
the full-height OLH hash matrix, a bit-by-bit unpacker of wire v3's
packed report rows, the marginal-by-marginal cell compression of the
sampled-marginal protocols and the level-by-level HH client encode.  The
conformance tests compare the library against them, and
``benchmarks/bench_kernels.py`` times the fast paths against the first
four.  None of them is imported by the library itself.
"""

from __future__ import annotations

import struct
from typing import Dict, Union

import numpy as np

from repro.core import bitops
from repro.core.rng import ensure_rng
from repro.mechanisms.local_hashing import _hash
from repro.protocols.wire import report_schema_for


def popcount_reference(values):
    """Popcount by shift-and-mask, one bit per full-array pass."""
    if np.isscalar(values) and not isinstance(values, np.generic):
        return int(values).bit_count()
    arr = np.asarray(values)
    if arr.dtype == object:
        return np.vectorize(lambda v: int(v).bit_count(), otypes=[np.int64])(arr)
    arr = arr.astype(np.uint64, copy=True)
    count = np.zeros(arr.shape, dtype=np.int64)
    while np.any(arr):
        count += (arr & np.uint64(1)).astype(np.int64)
        arr >>= np.uint64(1)
    return count if count.shape else int(count)


def parity_reference(values):
    """Parity (0/1) of the set bits, via :func:`popcount_reference`."""
    return popcount_reference(values) & 1


def fwht_reference(vector: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform: a Python loop over butterfly blocks per
    stage.  ``hadamard.fwht`` does the same arithmetic, so the two agree
    bit for bit."""
    vec = np.array(vector, dtype=np.float64, copy=True)
    n = vec.shape[0]
    if n == 0 or (n & (n - 1)) != 0:
        raise ValueError(f"fwht requires a power-of-two length, got {n}")
    h = 1
    while h < n:
        for start in range(0, n, h * 2):
            left = vec[start : start + h].copy()
            right = vec[start + h : start + 2 * h].copy()
            vec[start : start + h] = left + right
            vec[start + h : start + 2 * h] = left - right
        h *= 2
    return vec


def support_counts_reference(
    oracle, seeds: np.ndarray, noisy_buckets: np.ndarray, batch_size: int = 256
) -> np.ndarray:
    """OLH support counts of ``oracle`` (an ``OptimizedLocalHashing``): the
    full-height hash matrix of every user against each batch of candidates."""
    seeds = np.asarray(seeds, dtype=np.int64)
    noisy_buckets = np.asarray(noisy_buckets, dtype=np.int64)
    assert seeds.shape == noisy_buckets.shape and seeds.ndim == 1
    support = np.zeros(oracle.domain_size, dtype=np.float64)
    for start in range(0, oracle.domain_size, batch_size):
        stop = min(start + batch_size, oracle.domain_size)
        candidates = np.arange(start, stop, dtype=np.int64)
        # hashes[i, j] = h_{seed_i}(candidate_j), by broadcasting.
        hashes = _hash(candidates[None, :], seeds[:, None], oracle.num_buckets)
        support[start:stop] = (hashes == noisy_buckets[:, None]).sum(axis=0)
    return support


def decode_rows_reference(kind: str, body: bytes) -> Union[str, Dict[str, np.ndarray]]:
    """Decode a v3 payload ``body`` (no CRC) of well-formed descriptors and
    width table by reading its packed rows one bit at a time.

    Returns the per-user fields as arrays of their dtypes, or the reason
    the decoder must refuse the rows: ``"padding"`` when a row sets a bit
    past its last column, ``"loose column c"`` when column ``c`` (in the
    first such frame row order) is wider than its largest value needs.
    """
    schema = report_schema_for(kind)
    offset = 0
    rows = 0
    layout = []  # (field, columns) of the per-user fields
    for field in schema.fields:
        ndim = body[offset + 1]
        shape = struct.unpack_from(f"<{ndim}Q", body, offset + 2)
        offset += 2 + 8 * ndim
        if field.per_user:
            rows = shape[0]
            layout.append((field, 1 if ndim == 1 else shape[1]))
    offset += 8 * len(schema.scalar_fields)
    count = sum(columns for _, columns in layout)
    widths = list(body[offset : offset + count])
    packed = body[offset + count :]
    total = sum(widths)
    stride = -(-total // 8)
    bits = [(byte >> index) & 1 for byte in packed for index in range(8)]
    table = []
    for row in range(rows):
        base = row * stride * 8
        if any(bits[base + total : base + stride * 8]):
            return "padding"
        cells = []
        at = base
        for width in widths:
            cells.append(sum(bits[at + index] << index for index in range(width)))
            at += width
        table.append(cells)
    for column, width in enumerate(widths):
        largest = max((cells[column] for cells in table), default=0)
        if width > 1 and largest < 1 << (width - 1):
            return f"loose column {column}"
    values = {}
    position = 0
    for field, columns in layout:
        cut = [cells[position : position + columns] for cells in table]
        position += columns
        array = np.array(cut, dtype=np.int64).reshape(rows, columns)
        if field.sign:
            array = np.where(array == 1, 1.0, -1.0)
        array = array.astype(field.dtype)
        values[field.name] = array[:, 0] if field.ndim == 1 else array
    return values


def sampled_marginal_cells_reference(indices, choices, marginals) -> np.ndarray:
    """Each user's compact cell, one ``compress_indices`` per marginal."""
    indices = np.asarray(indices, dtype=np.int64)
    choices = np.asarray(choices, dtype=np.int64)
    cells = np.empty(indices.shape[0], dtype=np.int64)
    for position, beta in enumerate(marginals):
        members = choices == position
        if members.any():
            cells[members] = bitops.compress_indices(indices[members] & beta, beta)
    return cells


def hh_encode_reference(protocol, records, rng=None):
    """HH's client encode level by level: the level draw, then each level's
    users through their own level protocol's ``encode_batch`` in plan
    order, with the same generator.  Returns ``(levels, int_data,
    float_data)`` as ``HeavyHitterReports`` packs them."""
    generator = ensure_rng(rng)
    records = np.asarray(records)
    users, dimension = records.shape
    plan = protocol.level_plan(dimension)
    oracle = protocol.oracle_name
    levels = generator.integers(0, len(plan), size=users)
    int_data = np.zeros((users, 1 if oracle == "InpHT" else 2), dtype=np.int64)
    float_data = np.zeros((users, 0 if oracle == "InpOLH" else 1))
    for index, bits in enumerate(plan):
        members = levels == index
        if not members.any():
            continue
        inner = protocol.level_protocol(bits).encode_batch(
            records[members][:, :bits], rng=generator
        )
        if oracle == "InpOLH":
            int_data[members, 0] = inner.seeds
            int_data[members, 1] = inner.noisy_buckets
        elif oracle == "InpHT":
            int_data[members, 0] = inner.choices
            float_data[members, 0] = inner.noisy_values
        else:
            int_data[members, 0] = inner.hash_indices
            int_data[members, 1] = inner.coefficient_indices
            float_data[members, 0] = inner.noisy_signs
    return levels, int_data, float_data
