"""MargHT — randomized response on a Hadamard coefficient of a sampled marginal.

Each user samples one of the ``C(d, k)`` k-way marginals uniformly, takes the
Hadamard transform of their (one-hot, size ``2^k``) contribution to it,
samples one of its ``2^k - 1`` non-constant coefficients, and reports the
coefficient's +/-1 value through full-budget sign randomized response
(``d + k + 1`` bits per user).  The aggregator estimates every coefficient of
every k-way marginal and reconstructs the tables.

Unlike ``InpHT`` this method does not share information between marginals —
the coefficient ``alpha`` of marginal ``beta`` is estimated only from the
users who sampled ``beta`` — which is why its bound carries the extra
``(2d)^{k/2}``-style factor (Table 2: ``2^{3k/2} d^{k/2} / (eps sqrt(N))``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..core import bitops
from ..core.domain import Domain
from ..core.hadamard import fwht_rows
from ..core.marginals import MarginalWorkload
from ..core.rng import RngLike, ensure_rng
from ..mechanisms.randomized_response import SignRandomizedResponse
from .base import (
    Accumulator,
    MarginalReleaseProtocol,
    PerMarginalEstimator,
    as_record_matrix,
    record_indices,
    sampled_marginal_cells,
    sampled_marginals,
    take_state_array,
)
from .wire import ReportField, WireCodableReports, register_report_schema

__all__ = ["MargHT", "MargHTReports", "MargHTAccumulator"]


@dataclass(frozen=True)
class MargHTReports(WireCodableReports):
    """One encoded batch: sampled (marginal, coefficient) pairs + noisy signs."""

    marginal_choices: np.ndarray
    coefficient_choices: np.ndarray
    noisy_values: np.ndarray

    @property
    def num_users(self) -> int:
        return int(self.marginal_choices.shape[0])


register_report_schema(
    "MargHT",
    MargHTReports,
    fields=(
        ReportField("marginal_choices", np.int64),
        ReportField("coefficient_choices", np.int64),
        ReportField("noisy_values", np.float64, sign=True),
    ),
)


class MargHTAccumulator(Accumulator):
    """Mergeable per-(marginal, coefficient) sign sums and report counts."""

    def __init__(self, workload: MarginalWorkload, mechanism: SignRandomizedResponse):
        super().__init__(workload)
        self._mechanism = mechanism
        self._marginals: List[int] = workload.domain.all_marginals(
            workload.max_width
        )
        self._cells = 1 << workload.max_width
        shape = (len(self._marginals), self._cells)
        self._sums = np.zeros(shape, dtype=np.float64)
        self._counts = np.zeros(shape, dtype=np.int64)

    def _ingest(self, reports: MargHTReports) -> None:
        marginal_choices = np.asarray(reports.marginal_choices, dtype=np.int64)
        coefficient_choices = np.asarray(reports.coefficient_choices, dtype=np.int64)
        flat = marginal_choices * self._cells + coefficient_choices
        length = len(self._marginals) * self._cells
        self._sums += np.bincount(
            flat, weights=reports.noisy_values, minlength=length
        ).reshape(self._sums.shape)
        self._counts += np.bincount(flat, minlength=length).reshape(
            self._counts.shape
        )

    def _absorb(self, other: "MargHTAccumulator") -> None:
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

    def finalize(self) -> PerMarginalEstimator:
        self._require_reports()
        # De-bias every (marginal, coefficient) cell in one shot — the
        # unbiasing is elementwise — then reconstruct all C(d, k) tables with
        # a single batched inverse transform over the coefficient rows.
        coefficients = np.zeros(self._sums.shape, dtype=np.float64)
        coefficients[:, 0] = 1.0
        seen = self._counts > 0
        seen[:, 0] = False
        unbiased = self._mechanism.unbias_sums(self._sums, self._counts)
        coefficients[seen] = unbiased[seen]
        reconstructed = fwht_rows(coefficients) / self._cells
        tables: Dict[int, np.ndarray] = {
            beta: reconstructed[position]
            for position, beta in enumerate(self._marginals)
        }
        return PerMarginalEstimator(self._workload, tables)


class MargHT(MarginalReleaseProtocol):
    """Sampled-Hadamard-coefficient release on a sampled k-way marginal."""

    name = "MargHT"

    def mechanism(self) -> SignRandomizedResponse:
        return SignRandomizedResponse.from_budget(self.budget)

    def encode_batch(self, records, rng: RngLike = None) -> MargHTReports:
        generator = ensure_rng(rng)
        records = as_record_matrix(records)
        marginals = sampled_marginals(records.shape[1], self.max_width)
        cells = 1 << self.max_width

        indices = record_indices(records)
        n = indices.shape[0]
        marginal_choices = generator.integers(0, len(marginals), size=n)
        # Sample a non-constant coefficient of the size-2^k marginal: indices
        # 1 .. 2^k - 1 in the compact coefficient space (Theta_0 = 1 is known).
        coefficient_choices = generator.integers(1, cells, size=n, dtype=np.int64)

        user_cells = sampled_marginal_cells(indices, marginal_choices, marginals)
        # Scaled coefficient value of a one-hot marginal: (-1)^{<alpha, cell>}.
        true_values = bitops.inner_product_sign(
            user_cells, coefficient_choices
        ).astype(np.float64)
        noisy_values = self.mechanism().perturb(true_values, rng=generator)
        return MargHTReports(
            marginal_choices=marginal_choices,
            coefficient_choices=coefficient_choices,
            noisy_values=noisy_values,
        )

    def accumulator(self, domain: Domain) -> MargHTAccumulator:
        return MargHTAccumulator(self.workload_for(domain), self.mechanism())

    def report_bounds(self, dimension: int):
        return {
            "marginal_choices": (math.comb(dimension, self.max_width),),
            "coefficient_choices": (1 << self.max_width,),
        }

    def communication_bits(self, dimension: int) -> int:
        """``d`` bits for the marginal, ``k`` for the coefficient, 1 for its value."""
        return dimension + self.max_width + 1
