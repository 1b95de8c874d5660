"""Every client mechanism's ``perturb`` is ``apply(values, *draw(...))``.

The draw step takes all of a batch's randomness, in ``perturb``'s order,
without reading a value; the apply step is deterministic.  So a caller
may draw several batches first (HH draws level by level) and apply once,
and the generator ends where ``perturb`` would have left it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import ProtocolConfigurationError
from repro.core.privacy import PrivacyBudget
from repro.mechanisms.direct_encoding import DirectEncoding
from repro.mechanisms.local_hashing import OptimizedLocalHashing
from repro.mechanisms.randomized_response import SignRandomizedResponse
from repro.mechanisms.sketch import HadamardCountMeanSketch
from repro.protocols.inp_ht import InpHT

BUDGET = PrivacyBudget(1.5)
USERS = 300
VALUES = np.random.default_rng(9).integers(0, 256, size=USERS)

#: name -> (mechanism, one batch of its input values)
MECHANISMS = {
    "DirectEncoding": (DirectEncoding.from_budget(BUDGET, 6), VALUES % 6),
    "SignRandomizedResponse": (
        SignRandomizedResponse.from_budget(BUDGET),
        1.0 - 2.0 * (VALUES % 2),
    ),
    "OptimizedLocalHashing": (OptimizedLocalHashing(256, BUDGET), VALUES),
    "HadamardCountMeanSketch": (HadamardCountMeanSketch(256, BUDGET), VALUES),
}


@pytest.mark.parametrize("name", sorted(MECHANISMS))
@pytest.mark.parametrize("users", [USERS, 1, 0])
def test_perturb_is_apply_of_draw(name, users):
    mechanism, values = MECHANISMS[name]
    values = values[:users]
    whole, parts = np.random.default_rng(3), np.random.default_rng(3)
    expected = mechanism.perturb(values, whole)
    draws = mechanism.draw(users, parts)
    if isinstance(draws, np.ndarray):
        draws = (draws,)
    observed = mechanism.apply(values, *draws)
    if isinstance(expected, np.ndarray):
        expected, observed = (expected,), (observed,)
    for left, right in zip(expected, observed):
        np.testing.assert_array_equal(left, right)
        assert left.dtype == right.dtype
    assert whole.random() == parts.random()


def test_inp_ht_encode_is_apply_of_draw():
    protocol = InpHT(BUDGET, 2)
    records = np.random.default_rng(4).integers(0, 2, (USERS, 6), dtype=np.int8)
    reports = protocol.encode_batch(records, rng=7)
    alphas = protocol.coefficient_indices(6)
    choices, uniforms = protocol.draw(alphas.size, USERS, np.random.default_rng(7))
    indices = records.astype(np.int64) @ (1 << np.arange(6))
    np.testing.assert_array_equal(reports.choices, choices)
    np.testing.assert_array_equal(
        reports.noisy_values, protocol.apply(indices, alphas[choices], uniforms)
    )


@pytest.mark.parametrize("name", ["OptimizedLocalHashing", "HadamardCountMeanSketch"])
def test_apply_refuses_values_outside_the_domain(name):
    mechanism, _ = MECHANISMS[name]
    draws = mechanism.draw(3, np.random.default_rng(1))
    with pytest.raises(ProtocolConfigurationError, match=r"\[0, 256\)"):
        mechanism.apply(np.array([0, 256, 3]), *draws)
