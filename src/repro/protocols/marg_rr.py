"""MargRR — parallel randomized response on one randomly sampled marginal.

Each user samples one of the ``C(d, k)`` k-way marginals uniformly,
materialises their (one-hot, size ``2^k``) contribution to it, perturbs every
cell with parallel randomized response, and sends the marginal identity plus
the perturbed cells (``d + 2^k`` bits).  The aggregator groups reports by
sampled marginal, averages and de-biases them per cell.

Table 2 summary: error behaviour ``2^k d^{k/2} / (eps sqrt(N))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..core.domain import Domain
from ..core.marginals import MarginalWorkload
from ..core.privacy import PrivacyBudget
from ..core.rng import RngLike, ensure_rng
from ..mechanisms.unary_encoding import UnaryEncoding
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

__all__ = ["MargRR", "MargRRReports", "MargRRAccumulator"]


@dataclass(frozen=True)
class MargRRReports(WireCodableReports):
    """One encoded batch: sampled marginal positions + perturbed cell bits.

    ``choices[i]`` indexes the shared ``C(d, k)`` marginal list;
    ``cell_bits[i]`` is user ``i``'s PRR-perturbed one-hot row of ``2^k``
    bits over their sampled marginal's cells.
    """

    choices: np.ndarray
    cell_bits: np.ndarray

    @property
    def num_users(self) -> int:
        return int(self.choices.shape[0])


register_report_schema(
    "MargRR",
    MargRRReports,
    fields=(
        ReportField("choices", np.int64),
        ReportField("cell_bits", np.int8, ndim=2),
    ),
)


class MargRRAccumulator(Accumulator):
    """Mergeable per-(marginal, cell) bit sums and per-marginal user counts."""

    def __init__(self, workload: MarginalWorkload, mechanism: UnaryEncoding):
        super().__init__(workload)
        self._mechanism = mechanism
        self._marginals: List[int] = workload.domain.all_marginals(
            workload.max_width
        )
        self._cells = 1 << workload.max_width
        self._sums = np.zeros((len(self._marginals), self._cells), dtype=np.float64)
        self._counts = np.zeros(len(self._marginals), dtype=np.int64)

    def _ingest(self, reports: MargRRReports) -> None:
        choices = np.asarray(reports.choices, dtype=np.int64)
        bits = np.asarray(reports.cell_bits)
        size = len(self._marginals)
        for cell in range(self._cells):
            self._sums[:, cell] += np.bincount(
                choices, weights=bits[:, cell], minlength=size
            )
        self._counts += np.bincount(choices, minlength=size)

    def _absorb(self, other: "MargRRAccumulator") -> None:
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
        tables: Dict[int, np.ndarray] = {}
        for position, beta in enumerate(self._marginals):
            if self._counts[position] == 0:
                # Nobody sampled this marginal; fall back to the uniform prior.
                tables[beta] = np.full(self._cells, 1.0 / self._cells)
                continue
            tables[beta] = self._mechanism.unbias_sums(
                self._sums[position], int(self._counts[position])
            )
        return PerMarginalEstimator(self._workload, tables)


class MargRR(MarginalReleaseProtocol):
    """Parallel RR on a randomly sampled k-way marginal."""

    name = "MargRR"

    def __init__(
        self,
        budget: PrivacyBudget,
        max_width: int,
        optimized_probabilities: bool = True,
    ):
        super().__init__(budget, max_width)
        self._optimized = bool(optimized_probabilities)

    @property
    def optimized_probabilities(self) -> bool:
        return self._optimized

    def spec_options(self):
        return {"optimized_probabilities": self._optimized}

    def mechanism(self) -> UnaryEncoding:
        """The per-cell perturbation applied to the sampled marginal."""
        return UnaryEncoding.from_budget(self.budget, optimized=self._optimized)

    def encode_batch(self, records, rng: RngLike = None) -> MargRRReports:
        generator = ensure_rng(rng)
        records = as_record_matrix(records)
        marginals = sampled_marginals(records.shape[1], self.max_width)
        cells = 1 << self.max_width

        indices = record_indices(records)
        choices = generator.integers(0, len(marginals), size=indices.shape[0])
        user_cells = sampled_marginal_cells(indices, choices, marginals)
        # Perturb every cell of the sampled marginal with PRR.
        cell_bits = self.mechanism().perturb_onehot_indices(
            user_cells, cells, rng=generator
        )
        return MargRRReports(choices=choices, cell_bits=cell_bits)

    def accumulator(self, domain: Domain) -> MargRRAccumulator:
        return MargRRAccumulator(self.workload_for(domain), self.mechanism())

    def report_bounds(self, dimension: int):
        return {
            "choices": (math.comb(dimension, self.max_width),),
            "cell_bits": (2,) * (1 << self.max_width),
        }

    def communication_bits(self, dimension: int) -> int:
        """``d`` bits to name the marginal plus ``2^k`` perturbed cells."""
        return dimension + (1 << self.max_width)
