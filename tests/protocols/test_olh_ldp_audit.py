"""ε-LDP audit of InpOLH's client-side encoder.

An OLH report is ``(seed, noisy bucket)``: the seed is drawn independently
of the record, then the record's hash ``_hash(record, seed)`` goes through
generalised randomized response (``DirectEncoding``) over ``g`` buckets.
So ``P(report | record) = P(seed) * P(noisy | _hash(record, seed))`` and,
for each seed, the privacy loss between two records is a ratio of GRR
probabilities.

* The exact audit enumerates ``P(noisy | record, seed)`` for every record
  of a ``d <= 3`` domain and a seeded sample of hash seeds, and asserts the
  worst-case ratio over record pairs is at most ``e^eps``.
* The sampling audit runs :meth:`OptimizedLocalHashing.perturb` itself and
  bounds the privacy loss from below with Clopper–Pearson intervals, as in
  Ding et al., "Detecting Violations of Differential Privacy" (CCS '18): a
  99.9%-confidence lower bound on ``eps`` above the budget is a violation.

Each test records its audited ε-hat (``record_property``, and printed for
``pytest -s``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.stats import beta

from repro.core.privacy import PrivacyBudget
from repro.mechanisms.direct_encoding import DirectEncoding
from repro.mechanisms.local_hashing import OptimizedLocalHashing, _hash
from repro.protocols.inp_olh import InpOLH

#: (eps, d): the paper's ln 3 (g = 4, a mask fold), eps = 1 (g = 3) and the
#: heavy-hitter oracle's eps = 3 (g = 21), over 1-, 2- and 3-bit domains.
AUDIT_CASES = [
    (math.log(3.0), 1),
    (math.log(3.0), 3),
    (1.0, 2),
    (1.0, 3),
    (3.0, 2),
    (3.0, 3),
]
#: A seeded sample of hash seeds, drawn the way ``perturb`` draws them.
SEEDS = np.random.default_rng(20180610).integers(
    1, 2**62, size=128, dtype=np.int64
)
#: Joint confidence of the sampling audit's Clopper–Pearson bounds.
CONFIDENCE = 0.999
SAMPLES = 40_000


def _oracle(epsilon: float, dimension: int) -> OptimizedLocalHashing:
    """The oracle InpOLH encodes a ``dimension``-bit record with."""
    return InpOLH(PrivacyBudget(epsilon), 1).oracle(dimension)


def _report_probabilities(oracle: OptimizedLocalHashing, seeds) -> np.ndarray:
    """``P(noisy = y | record, seed)`` as a (seed, record, y) array, from
    the GRR mechanism :meth:`~OptimizedLocalHashing.perturb` applies."""
    grr = oracle.encoder
    records = np.arange(oracle.domain_size)
    hashes = _hash(records[None, :], seeds[:, None], oracle.num_buckets)
    outputs = np.arange(oracle.num_buckets)
    return np.where(
        hashes[:, :, None] == outputs,
        grr.keep_probability,
        grr.lie_probability,
    )


def _clopper_pearson(successes: int, trials: int, alpha: float):
    """One-sided (lower, upper) Clopper–Pearson bounds on a binomial rate,
    each holding with probability ``1 - alpha``."""
    lower = (
        beta.ppf(alpha, successes, trials - successes + 1)
        if successes
        else 0.0
    )
    upper = (
        beta.ppf(1 - alpha, successes + 1, trials - successes)
        if successes < trials
        else 1.0
    )
    return float(lower), float(upper)


@pytest.mark.parametrize("epsilon,dimension", AUDIT_CASES)
def test_enumerated_worst_case_ratio_is_within_budget(
    epsilon, dimension, record_property
):
    oracle = _oracle(epsilon, dimension)
    probabilities = _report_probabilities(oracle, SEEDS)
    np.testing.assert_allclose(probabilities.sum(axis=2), 1.0)
    # Worst case over record pairs: the largest over the smallest
    # probability of each (seed, output), across records.
    ratio = float(
        np.max(probabilities.max(axis=1) / probabilities.min(axis=1))
    )
    epsilon_hat = math.log(ratio)
    record_property("epsilon_hat", epsilon_hat)
    print(
        f"InpOLH eps={epsilon:.4f} d={dimension}: enumerated eps-hat "
        f"{epsilon_hat:.6f}"
    )
    assert ratio <= math.exp(epsilon) * (1 + 1e-12)
    # GRR over g buckets spends the whole budget: some seed separates two
    # records, and their outputs differ by exactly e^eps.
    assert epsilon_hat == pytest.approx(epsilon, rel=1e-9)


@pytest.mark.parametrize("epsilon,dimension", [(math.log(3.0), 2), (3.0, 3)])
def test_seed_draw_does_not_depend_on_the_record(epsilon, dimension):
    """The same generator state yields the same seeds for any records, so
    the seed factor cancels from every ratio above."""
    oracle = _oracle(epsilon, dimension)
    drawn = [
        oracle.perturb(np.full(64, record), rng=np.random.default_rng(5))[0]
        for record in range(oracle.domain_size)
    ]
    for seeds in drawn[1:]:
        np.testing.assert_array_equal(seeds, drawn[0])


@pytest.mark.parametrize("epsilon,dimension", [(math.log(3.0), 2), (3.0, 3)])
def test_sampled_privacy_loss_is_bounded_by_the_budget(
    epsilon, dimension, record_property
):
    """Runs :meth:`~OptimizedLocalHashing.perturb` itself.  For records
    ``a != b`` the report event "``h(a) != h(b)`` and the noisy bucket is
    ``h(a)``" has rate ``P(h(a) != h(b)) * p`` under ``a`` and the same
    times ``q`` under ``b``: a likelihood ratio of exactly ``e^eps``.  A
    Clopper–Pearson lower bound on the ratio (Bonferroni-corrected over
    every bound taken) above ``e^eps`` is a violation.  The rate at which
    a record's own report supports it must also match the budget's ``p``."""
    oracle = _oracle(epsilon, dimension)
    keep = DirectEncoding.from_budget(
        PrivacyBudget(epsilon), oracle.num_buckets
    ).keep_probability
    records = range(oracle.domain_size)
    pairs = [(a, b) for a in records for b in records if a != b]
    alpha = (1.0 - CONFIDENCE) / (2 * len(pairs) + 2 * len(records))
    rng = np.random.default_rng([20180610, dimension])
    hashes = {}
    for record in records:
        seeds, noisy = oracle.perturb(np.full(SAMPLES, record), rng=rng)
        hashes[record] = noisy, [
            _hash(np.full(SAMPLES, value), seeds, oracle.num_buckets)
            for value in records
        ]
    for record in records:
        noisy, hashed = hashes[record]
        low, high = _clopper_pearson(
            int(np.sum(noisy == hashed[record])), SAMPLES, alpha
        )
        assert low <= keep <= high, f"record {record}: support rate off p"

    def event_count(sample, a, b):
        noisy, hashed = hashes[sample]
        return int(np.sum((hashed[a] != hashed[b]) & (noisy == hashed[a])))

    epsilon_lower = 0.0
    for a, b in pairs:
        low, _ = _clopper_pearson(event_count(a, a, b), SAMPLES, alpha)
        _, high = _clopper_pearson(event_count(b, a, b), SAMPLES, alpha)
        epsilon_lower = max(epsilon_lower, math.log(low / high))
    record_property("epsilon_hat_lower", epsilon_lower)
    print(
        f"InpOLH eps={epsilon:.4f} d={dimension}: sampled eps lower bound "
        f"{epsilon_lower:.4f} at {CONFIDENCE:.1%} confidence"
    )
    assert epsilon_lower <= epsilon
    # The audit has power: it sees most of the budget, not a vacuous zero.
    assert epsilon_lower > 0.8 * epsilon
