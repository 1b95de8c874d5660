"""HH's client encode: the level draw and each level's draws never read a
record, and the one-pass encode sends what the level-by-level encode sent.

Every user's level, and every column of their report that is randomness
alone (an OLH hash seed, an InpHT coefficient choice, an HCMS hash and
coefficient index), is a function of the generator only: two different
batches of the same size under one seed share them.  The rest of the
report is the deterministic apply of those draws to the user's prefix,
which ``tests/oracles.py``'s level-by-level encode computes one level
oracle at a time.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import ProtocolConfigurationError
from repro.core.privacy import PrivacyBudget
from repro.heavyhitters import HeavyHitters

from ..oracles import hh_encode_reference

ORACLES = ("InpOLH", "InpHT", "InpHTCMS")
#: Per oracle, the ``int_data`` columns that are draws alone.
DRAW_COLUMNS = {"InpOLH": [0], "InpHT": [0], "InpHTCMS": [0, 1]}


def _protocol(oracle: str, fanout: int = 3) -> HeavyHitters:
    return HeavyHitters(PrivacyBudget(3.0), 1, oracle=oracle, fanout=fanout)


@pytest.mark.parametrize("oracle", ORACLES)
def test_levels_and_draw_columns_do_not_depend_on_the_records(oracle):
    protocol = _protocol(oracle)
    users, dimension = 600, 10
    batches = [
        np.zeros((users, dimension), dtype=np.int8),
        np.ones((users, dimension), dtype=np.int8),
        np.random.default_rng(5).integers(0, 2, (users, dimension), np.int8),
    ]
    encoded = [protocol.encode_batch(batch, rng=11) for batch in batches]
    columns = DRAW_COLUMNS[oracle]
    for other in encoded[1:]:
        np.testing.assert_array_equal(other.levels, encoded[0].levels)
        np.testing.assert_array_equal(
            other.int_data[:, columns], encoded[0].int_data[:, columns]
        )
    # The records do reach the reports, through the apply step.
    payload = [
        np.column_stack((report.int_data, report.float_data)) for report in encoded
    ]
    assert not np.array_equal(payload[0], payload[1])


@settings(max_examples=60, deadline=None)
@given(
    oracle=st.sampled_from(ORACLES),
    dimension=st.integers(1, 11),
    fanout=st.integers(1, 5),
    users=st.integers(0, 80),
    seed=st.integers(0, 2**32 - 1),
)
def test_encode_equals_the_level_by_level_reference(
    oracle, dimension, fanout, users, seed
):
    protocol = _protocol(oracle, fanout)
    records = np.random.default_rng(seed).integers(
        0, 2, (users, dimension), dtype=np.int8
    )
    generator = np.random.default_rng(seed)
    reports = protocol.encode_batch(records, rng=generator)
    reference_generator = np.random.default_rng(seed)
    levels, int_data, float_data = hh_encode_reference(
        protocol, records, rng=reference_generator
    )
    np.testing.assert_array_equal(reports.levels, levels)
    np.testing.assert_array_equal(reports.int_data, int_data)
    np.testing.assert_array_equal(reports.float_data, float_data)
    assert reports.int_data.dtype == np.int64
    assert reports.float_data.dtype == np.float64
    # Both consumed the same draws, so the generators stay in step.
    assert generator.random() == reference_generator.random()


@pytest.mark.parametrize("oracle", ORACLES)
def test_an_out_of_range_prefix_is_refused_as_the_level_oracle_refuses(oracle):
    """A non-binary record value inside a user's prefix: OLH and HCMS
    refuse it with their level oracle's message; InpHT never refused one,
    and still encodes it the way its level oracle does."""
    protocol = _protocol(oracle, fanout=2)
    records = np.random.default_rng(2).integers(0, 2, (200, 6), dtype=np.int8)
    records[:, 0] = 2  # every level's prefix reads bit 0
    if oracle == "InpHT":
        reports = protocol.encode_batch(records, rng=4)
        levels, int_data, float_data = hh_encode_reference(protocol, records, 4)
        np.testing.assert_array_equal(reports.levels, levels)
        np.testing.assert_array_equal(reports.int_data, int_data)
        np.testing.assert_array_equal(reports.float_data, float_data)
        return
    with pytest.raises(ProtocolConfigurationError) as expected:
        hh_encode_reference(protocol, records, 4)
    with pytest.raises(ProtocolConfigurationError) as refused:
        protocol.encode_batch(records, rng=4)
    assert str(refused.value) == str(expected.value)
    assert "[0, 4)" in str(refused.value)  # the first (2-bit) level's domain
