"""``sampled_marginal_cells``'s one gather equals one ``compress_indices``
per marginal.

MargPS, MargRR and MargHT read each user's cell of their sampled marginal
through one ``(k, M)`` bit-position gather and ``k`` shift/mask/or steps;
the reference in ``tests/oracles.py`` is the per-marginal
``compress_indices(indices & beta, beta)`` it replaced.  The marginal set
itself is built once per (d, k), not once per encoded batch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitops
from repro.core.privacy import PrivacyBudget
from repro.protocols.base import sampled_marginal_cells, sampled_marginals
from repro.protocols.registry import make_protocol

from ..oracles import sampled_marginal_cells_reference

INT64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def batches(draw, mixed_weights=False):
    d = draw(st.integers(2, 16))
    k = draw(st.integers(1, min(d, 4)))
    if mixed_weights:
        pool = bitops.masks_up_to_weight(d, k)
        marginals = draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=40, unique=True)
        )
    else:
        marginals = bitops.masks_of_weight(d, k)
    users = draw(st.integers(0, 64))
    indices = draw(
        st.lists(st.integers(0, (1 << d) - 1) | INT64, min_size=users, max_size=users)
    )
    choices = draw(
        st.lists(
            st.integers(0, len(marginals) - 1), min_size=users, max_size=users
        )
    )
    return (
        np.array(indices, dtype=np.int64),
        np.array(choices, dtype=np.int64),
        marginals,
    )


@settings(max_examples=200, deadline=None)
@given(batches())
def test_gather_equals_compress_indices_per_marginal(batch):
    indices, choices, marginals = batch
    cells = sampled_marginal_cells(indices, choices, marginals)
    assert cells.dtype == np.int64
    np.testing.assert_array_equal(
        cells, sampled_marginal_cells_reference(indices, choices, marginals)
    )


@settings(max_examples=200, deadline=None)
@given(batches(mixed_weights=True))
def test_marginals_of_different_weights_pad_with_zero_bits(batch):
    """No protocol samples from marginals of mixed width, but the table
    pads a narrow marginal's missing bits with bit 63, which reads 0."""
    indices, choices, marginals = batch
    np.testing.assert_array_equal(
        sampled_marginal_cells(indices, choices, marginals),
        sampled_marginal_cells_reference(indices, choices, marginals),
    )


def test_an_empty_batch_has_no_cells():
    cells = sampled_marginal_cells(
        np.zeros(0, np.int64), np.zeros(0, np.int64), bitops.masks_of_weight(8, 2)
    )
    assert cells.shape == (0,) and cells.dtype == np.int64


def test_the_table_is_built_once_per_marginal_set():
    from repro.protocols.base import _marginal_bit_table

    marginals = bitops.masks_of_weight(9, 3)
    indices = np.arange(50, dtype=np.int64)
    choices = indices % len(marginals)
    sampled_marginal_cells(indices, choices, marginals)
    before = _marginal_bit_table.cache_info()
    sampled_marginal_cells(indices, choices, list(marginals))
    after = _marginal_bit_table.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert _marginal_bit_table(tuple(marginals)).shape == (3, len(marginals))


@pytest.mark.parametrize("name", ["MargPS", "MargRR", "MargHT"])
def test_the_marginal_set_is_built_once_per_configuration(name, monkeypatch):
    """Three encoded batches run the ``masks_of_weight`` loop once: the
    set depends on (d, k), never on the batch."""
    calls = []
    masks_of_weight = bitops.masks_of_weight

    def counting(d, k):
        calls.append((d, k))
        return masks_of_weight(d, k)

    monkeypatch.setattr(bitops, "masks_of_weight", counting)
    sampled_marginals.cache_clear()
    protocol = make_protocol(name, PrivacyBudget(np.log(3.0)), 2)
    rng = np.random.default_rng(12)
    for _ in range(3):
        records = (rng.random((40, 7)) < 0.5).astype(np.int8)
        protocol.encode_batch(records, rng=rng)
    assert calls == [(7, 2)]
