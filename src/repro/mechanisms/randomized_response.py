"""Randomized response on single bits and on +/-1 values.

Randomized response (Warner, 1965) is the canonical LDP primitive: a user
holding a private bit reports it truthfully with probability
``p = e^eps / (1 + e^eps)`` and lies otherwise, which satisfies epsilon-LDP.
The library uses two flavours:

* :class:`BitRandomizedResponse` for ``{0, 1}`` bits (used per-cell by the
  parallel-RR protocols and per-attribute by the EM baseline);
* :class:`SignRandomizedResponse` for ``{-1, +1}`` values (used for Hadamard
  coefficients, where flipping the sign is the natural perturbation).

Both expose the matching unbiased de-biasing transforms the aggregator
applies to averaged reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.exceptions import ProtocolConfigurationError
from ..core.privacy import PrivacyBudget
from ..core.rng import RngLike, ensure_rng

__all__ = ["BitRandomizedResponse", "SignRandomizedResponse"]


def _validate_probability(keep_probability: float) -> float:
    keep = float(keep_probability)
    if not 0.5 < keep < 1.0:
        raise ProtocolConfigurationError(
            "randomized response needs a keep probability strictly between "
            f"0.5 and 1, got {keep}"
        )
    return keep


@dataclass(frozen=True)
class BitRandomizedResponse:
    """Symmetric randomized response on ``{0, 1}`` bits.

    Attributes
    ----------
    keep_probability:
        Probability of reporting the true bit.  ``from_budget`` sets it to
        ``e^eps / (1 + e^eps)`` so a single application is epsilon-LDP.
    """

    keep_probability: float

    def __post_init__(self):
        object.__setattr__(
            self, "keep_probability", _validate_probability(self.keep_probability)
        )

    @classmethod
    def from_budget(cls, budget: PrivacyBudget) -> "BitRandomizedResponse":
        return cls(budget.rr_keep_probability())

    @property
    def epsilon(self) -> float:
        """The LDP guarantee a single application of this mechanism provides."""
        keep = self.keep_probability
        return float(np.log(keep / (1.0 - keep)))

    def perturb(self, bits: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Perturb an array of 0/1 bits element-wise."""
        generator = ensure_rng(rng)
        bits = np.asarray(bits)
        flips = generator.random(bits.shape) >= self.keep_probability
        return np.where(flips, 1 - bits, bits).astype(np.int8)

    def unbias_mean(self, observed_mean: np.ndarray) -> np.ndarray:
        """Invert the expected perturbation on an averaged report.

        If the true mean bit value is ``f`` the observed mean is
        ``p f + (1 - p)(1 - f)``; solving for ``f`` gives the returned
        unbiased estimate.
        """
        observed = np.asarray(observed_mean, dtype=np.float64)
        keep = self.keep_probability
        return (observed - (1.0 - keep)) / (2.0 * keep - 1.0)

    def variance_per_report(self, true_frequency: float = 0.5) -> float:
        """Variance of one unbiased per-user estimate at the given frequency."""
        keep = self.keep_probability
        observed = keep * true_frequency + (1 - keep) * (1 - true_frequency)
        return observed * (1 - observed) / (2 * keep - 1) ** 2


@dataclass(frozen=True)
class SignRandomizedResponse:
    """Symmetric randomized response on ``{-1, +1}`` values.

    Used to perturb scaled Hadamard coefficients: the value is kept with
    probability ``p`` and negated otherwise, so ``E[report] = (2p - 1) value``
    and dividing an averaged report by ``2p - 1`` de-biases it.
    """

    keep_probability: float

    def __post_init__(self):
        object.__setattr__(
            self, "keep_probability", _validate_probability(self.keep_probability)
        )

    @classmethod
    def from_budget(cls, budget: PrivacyBudget) -> "SignRandomizedResponse":
        return cls(budget.rr_keep_probability())

    @property
    def epsilon(self) -> float:
        keep = self.keep_probability
        return float(np.log(keep / (1.0 - keep)))

    @property
    def attenuation(self) -> float:
        """The multiplicative bias ``2p - 1`` applied to the true value."""
        return 2.0 * self.keep_probability - 1.0

    def perturb(self, signs: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Perturb an array of +/-1 values element-wise."""
        signs = np.asarray(signs, dtype=np.float64)
        return self.apply(signs, self.draw(signs.shape, rng))

    def draw(self, shape, rng: RngLike = None) -> np.ndarray:
        """The randomness of :meth:`perturb`: one flip uniform per value."""
        return ensure_rng(rng).random(shape)

    def apply(self, signs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """The deterministic half of :meth:`perturb`, given its draws."""
        signs = np.asarray(signs, dtype=np.float64)
        return np.where(uniforms >= self.keep_probability, -signs, signs)

    def unbias_mean(self, observed_mean: np.ndarray) -> np.ndarray:
        """Divide an averaged report by the attenuation factor ``2p - 1``."""
        return np.asarray(observed_mean, dtype=np.float64) / self.attenuation

    def unbias_sums(self, sign_sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Unbiased per-group values from sums of noisy signs and group sizes.

        This is the mergeable-accumulator form of :meth:`unbias_mean`: sums
        of ``+/-1`` reports add exactly across shards.  Groups nobody
        reported to are estimated as 0 (their prior under a uniform
        distribution).
        """
        sums = np.asarray(sign_sums, dtype=np.float64)
        counts = np.asarray(counts)
        means = np.zeros_like(sums)
        seen = counts > 0
        means[seen] = sums[seen] / counts[seen]
        return self.unbias_mean(means)

    def variance_per_report(self) -> float:
        """Variance of one unbiased per-user estimate (independent of the value).

        For a true value in ``{-1, +1}`` the report is +/-1 with mean
        ``(2p - 1) value``, so the de-biased estimate has variance
        ``1 / (2p - 1)^2 - 1 = 4 p (1 - p) / (2p - 1)^2``.
        """
        keep = self.keep_probability
        return 4.0 * keep * (1.0 - keep) / (2.0 * keep - 1.0) ** 2
