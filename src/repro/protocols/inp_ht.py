"""InpHT — randomized response on a sampled Hadamard coefficient of the input.

The paper's preferred protocol.  By Lemma 3.7 every marginal of width at most
``k`` is a linear combination of the Hadamard coefficients whose index has at
most ``k`` set bits, so only ``|T| = sum_{l=1..k} C(d, l)`` coefficients need
to be estimated (the constant coefficient ``Theta_0 = 1`` is known exactly).

Client: sample one coefficient index ``alpha`` from ``T`` uniformly, compute
the user's scaled coefficient value ``(-1)^{<alpha, j_i>}`` and report it
through full-budget sign randomized response together with ``alpha``
(``d + 1`` bits in total).

Aggregator: average the reports per coefficient, divide by the RR attenuation
``2p - 1``, and reconstruct any requested marginal from its ``2^k``
coefficients.

Table 2 summary: communication ``d + 1`` bits, error behaviour
``2^{k/2} sqrt(|T|) / (eps sqrt(N)) = O(2^{k/2} d^{k/2})`` — exponentially
better in ``d`` than the other input-based methods for small ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..core.domain import Domain
from ..core.exceptions import AggregationError
from ..core.hadamard import coefficient_index_set, user_coefficient_values
from ..core.marginals import MarginalWorkload
from ..core.rng import RngLike, ensure_rng
from ..mechanisms.randomized_response import SignRandomizedResponse
from .base import (
    Accumulator,
    CoefficientEstimator,
    MarginalReleaseProtocol,
    as_record_matrix,
    record_indices,
    take_state_array,
)
from .wire import ReportField, WireCodableReports, register_report_schema

__all__ = ["InpHT", "InpHTReports", "InpHTAccumulator"]


@dataclass(frozen=True)
class InpHTReports(WireCodableReports):
    """One encoded batch: sampled coefficient positions and noisy values.

    ``choices[i]`` is user ``i``'s sampled position into the shared
    coefficient set ``T`` and ``noisy_values[i]`` the sign-RR-perturbed
    coefficient value in ``{-1, +1}``.
    """

    choices: np.ndarray
    noisy_values: np.ndarray

    @property
    def num_users(self) -> int:
        return int(self.choices.shape[0])


register_report_schema(
    "InpHT",
    InpHTReports,
    fields=(
        ReportField("choices", np.int64),
        ReportField("noisy_values", np.float64, sign=True),
    ),
)


class InpHTAccumulator(Accumulator):
    """Mergeable per-coefficient sums and counts over the index set ``T``."""

    def __init__(
        self,
        workload: MarginalWorkload,
        mechanism: SignRandomizedResponse,
        alphas: np.ndarray,
    ):
        super().__init__(workload)
        self._mechanism = mechanism
        self._alphas = alphas
        self._sums = np.zeros(alphas.size, dtype=np.float64)
        self._counts = np.zeros(alphas.size, dtype=np.int64)

    def _ingest(self, reports: InpHTReports) -> None:
        choices = np.asarray(reports.choices, dtype=np.int64)
        if choices.size and (choices.min() < 0 or choices.max() >= self._alphas.size):
            raise AggregationError(
                f"coefficient choices must lie in [0, {self._alphas.size})"
            )
        self._sums += np.bincount(
            choices, weights=reports.noisy_values, minlength=self._alphas.size
        )
        self._counts += np.bincount(choices, minlength=self._alphas.size)

    def _absorb(self, other: "InpHTAccumulator") -> None:
        self._sums += other._sums
        self._counts += other._counts

    def _export_state(self):
        return {"sums": self._sums.copy(), "counts": self._counts.copy()}

    def _import_state(self, state) -> None:
        self._sums = take_state_array(state, "sums", self._sums.shape, np.float64)
        self._counts = take_state_array(
            state, "counts", self._counts.shape, np.int64
        )

    def _merge_signature(self):
        return self._mechanism

    def finalize(self) -> CoefficientEstimator:
        self._require_reports()
        # Per-coefficient mean of the users who sampled it, de-biased by the
        # RR attenuation.  Coefficients nobody sampled are estimated as 0
        # (their prior under a uniform distribution).
        seen = self._counts > 0
        unbiased = self._mechanism.unbias_sums(self._sums, self._counts)
        coefficients: Dict[int, float] = {}
        for alpha, value, sampled in zip(self._alphas, unbiased, seen):
            coefficients[int(alpha)] = float(value) if sampled else 0.0
        return CoefficientEstimator(self._workload, coefficients)


class InpHT(MarginalReleaseProtocol):
    """Sampled-Hadamard-coefficient release on the full input."""

    name = "InpHT"

    def mechanism(self) -> SignRandomizedResponse:
        """The full-budget sign-RR applied to the sampled coefficient."""
        return SignRandomizedResponse.from_budget(self.budget)

    def coefficient_indices(self, dimension: int) -> np.ndarray:
        """The sampled-from coefficient set ``T = {alpha : 1 <= |alpha| <= k}``."""
        return coefficient_index_set(dimension, self.max_width)

    def encode_batch(self, records, rng: RngLike = None) -> InpHTReports:
        generator = ensure_rng(rng)
        records = as_record_matrix(records)
        alphas = self.coefficient_indices(records.shape[1])
        if alphas.size == 0:
            raise AggregationError("the coefficient set T is empty")
        indices = record_indices(records)
        choices, uniforms = self.draw(alphas.size, indices.shape[0], generator)
        noisy_values = self.apply(indices, alphas[choices], uniforms)
        return InpHTReports(choices=choices, noisy_values=noisy_values)

    def draw(
        self, num_coefficients: int, size: int, rng: RngLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The randomness of :meth:`encode_batch` for ``size`` users, in its
        draw order: each user's position into a ``num_coefficients``-entry
        coefficient set, then the sign-RR flip uniforms."""
        generator = ensure_rng(rng)
        choices = generator.integers(0, num_coefficients, size=size)
        return choices, self.mechanism().draw(size, generator)

    def apply(
        self, indices: np.ndarray, alphas: np.ndarray, uniforms: np.ndarray
    ) -> np.ndarray:
        """The deterministic half of :meth:`encode_batch`: user ``i``'s
        coefficient ``alphas[i]`` at their one-hot position ``indices[i]``,
        sign-flipped with the drawn uniforms."""
        true_values = user_coefficient_values(indices, alphas)
        return self.mechanism().apply(true_values, uniforms)

    def accumulator(self, domain: Domain) -> InpHTAccumulator:
        return InpHTAccumulator(
            self.workload_for(domain),
            self.mechanism(),
            self.coefficient_indices(domain.dimension),
        )

    def report_bounds(self, dimension: int):
        return {"choices": (self.coefficient_indices(dimension).size,)}

    def communication_bits(self, dimension: int) -> int:
        """``d`` bits for the coefficient index plus 1 bit for its noisy value."""
        return dimension + 1
