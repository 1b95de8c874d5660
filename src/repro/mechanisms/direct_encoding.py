"""Direct encoding / generalised randomized response / preferential sampling.

A user whose value is one of ``m`` categories reports the true category with
probability ``p_s = e^eps / (e^eps + m - 1)`` and each other category with
probability ``(1 - p_s) / (m - 1)`` (Fact 3.1 of the paper; the paper calls
this Preferential Sampling, the frequency-estimation literature calls it
Generalised Randomized Response or Direct Encoding).

For ``m = 2`` this coincides with one-bit randomized response.  The
aggregator's unbiased estimator for the frequency of category ``j`` from the
fraction of reports ``F_j`` is ``(F_j - q) / (p_s - q)`` with
``q = (1 - p_s)/(m - 1)``, which matches the ``(D F_j + p_s - 1)/(D p_s + p_s - 1)``
form derived in Section 4.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..core.exceptions import ProtocolConfigurationError
from ..core.privacy import PrivacyBudget
from ..core.rng import RngLike, ensure_rng

__all__ = ["DirectEncoding"]


@dataclass(frozen=True)
class DirectEncoding:
    """Generalised randomized response over ``domain_size`` categories."""

    domain_size: int
    keep_probability: float

    def __post_init__(self):
        size = int(self.domain_size)
        keep = float(self.keep_probability)
        if size < 2:
            raise ProtocolConfigurationError(
                f"direct encoding needs a domain of size >= 2, got {size}"
            )
        uniform = 1.0 / size
        if not (uniform < keep < 1.0):
            raise ProtocolConfigurationError(
                f"keep probability must lie in (1/{size}, 1), got {keep}"
            )
        object.__setattr__(self, "domain_size", size)
        object.__setattr__(self, "keep_probability", keep)

    @classmethod
    def from_budget(cls, budget: PrivacyBudget, domain_size: int) -> "DirectEncoding":
        return cls(domain_size, budget.grr_keep_probability(domain_size))

    @property
    def lie_probability(self) -> float:
        """Probability of reporting any particular *incorrect* category."""
        return (1.0 - self.keep_probability) / (self.domain_size - 1)

    @property
    def epsilon(self) -> float:
        """The LDP level implied by the probability setting."""
        return float(np.log(self.keep_probability / self.lie_probability))

    def perturb(self, values: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Perturb an array of category indices element-wise.

        A lying user reports a category drawn uniformly from the ``m - 1``
        categories different from their own.
        """
        values = np.asarray(values, dtype=np.int64)
        return self.apply(values, *self.draw(values.shape, rng))

    def draw(self, shape, rng: RngLike = None) -> Tuple[np.ndarray, np.ndarray]:
        """The randomness of :meth:`perturb` for ``shape`` values, in its
        draw order: each value's lie uniform, then its lie offset."""
        generator = ensure_rng(rng)
        uniforms = generator.random(shape)
        offsets = generator.integers(0, self.domain_size - 1, size=shape)
        return uniforms, offsets

    def apply(
        self, values: np.ndarray, uniforms: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        """The deterministic half of :meth:`perturb`, given its draws."""
        values = np.asarray(values, dtype=np.int64)
        if values.size and (values.min() < 0 or values.max() >= self.domain_size):
            raise ProtocolConfigurationError(
                f"values must lie in [0, {self.domain_size}), got range "
                f"[{values.min()}, {values.max()}]"
            )
        lie = uniforms >= self.keep_probability
        # A uniformly random *other* category: a draw from m-1 slots with
        # the slots at or above the true value shifted up by one.
        lies = np.where(offsets >= values, offsets + 1, offsets)
        return np.where(lie, lies, values)

    def unbias_frequencies(self, report_fractions: np.ndarray) -> np.ndarray:
        """Unbiased per-category frequency estimates from report fractions."""
        fractions = np.asarray(report_fractions, dtype=np.float64)
        p = self.keep_probability
        q = self.lie_probability
        return (fractions - q) / (p - q)

    def count_reports(self, reports: np.ndarray) -> np.ndarray:
        """Per-category report counts — the mergeable aggregation state.

        Counts from different report batches add exactly, so sharded
        aggregation and single-pass aggregation agree bit-for-bit.
        """
        reports = np.asarray(reports, dtype=np.int64)
        if reports.size and (reports.min() < 0 or reports.max() >= self.domain_size):
            raise ProtocolConfigurationError(
                f"reports must lie in [0, {self.domain_size})"
            )
        return np.bincount(reports, minlength=self.domain_size)

    def unbias_counts(self, counts: np.ndarray, num_users: int) -> np.ndarray:
        """Unbiased per-category frequencies from accumulated report counts."""
        if num_users < 1:
            raise ProtocolConfigurationError("cannot aggregate zero reports")
        counts = np.asarray(counts, dtype=np.float64)
        return self.unbias_frequencies(counts / num_users)

    def report_histogram(self, reports: np.ndarray) -> np.ndarray:
        """Fraction of reports landing on each category."""
        reports = np.asarray(reports, dtype=np.int64)
        if reports.size == 0:
            raise ProtocolConfigurationError("cannot aggregate zero reports")
        counts = np.bincount(reports, minlength=self.domain_size).astype(np.float64)
        return counts / reports.size

    def estimate_frequencies(self, reports: np.ndarray) -> np.ndarray:
        """Convenience: histogram + unbias in one call."""
        return self.unbias_frequencies(self.report_histogram(reports))

    def variance_per_report(self, true_frequency: float = 0.0) -> float:
        """Variance of one user's unbiased contribution to a cell frequency."""
        p = self.keep_probability
        q = self.lie_probability
        observed = true_frequency * p + (1 - true_frequency) * q
        return observed * (1 - observed) / (p - q) ** 2
