"""MargPS — preferential sampling within one randomly sampled marginal.

Each user samples one of the ``C(d, k)`` k-way marginals uniformly and then
reports the cell of that marginal their record falls in through generalised
randomized response over the ``2^k`` cells (``d + k`` bits per user).  The
aggregator groups the reports by marginal and unbiases the per-cell report
fractions into frequency estimates.

Table 2 summary: error behaviour ``2^{3k/2} d^{k/2} / (eps sqrt(N))``.  For
the small ``k`` the paper targets, MargPS is competitive and in several
experiments the second-best method after InpHT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..core.domain import Domain
from ..core.marginals import MarginalWorkload
from ..core.rng import RngLike, ensure_rng
from ..mechanisms.direct_encoding import DirectEncoding
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

__all__ = ["MargPS", "MargPSReports", "MargPSAccumulator"]


@dataclass(frozen=True)
class MargPSReports(WireCodableReports):
    """One encoded batch: sampled marginal positions + noisy cell indices."""

    choices: np.ndarray
    noisy_cells: np.ndarray

    @property
    def num_users(self) -> int:
        return int(self.choices.shape[0])


register_report_schema(
    "MargPS",
    MargPSReports,
    fields=(
        ReportField("choices", np.int64),
        ReportField("noisy_cells", np.int64),
    ),
)


class MargPSAccumulator(Accumulator):
    """Mergeable per-(marginal, cell) report counts."""

    def __init__(self, workload: MarginalWorkload, mechanism: DirectEncoding):
        super().__init__(workload)
        self._mechanism = mechanism
        self._marginals: List[int] = workload.domain.all_marginals(
            workload.max_width
        )
        self._cells = 1 << workload.max_width
        self._cell_counts = np.zeros(
            (len(self._marginals), self._cells), dtype=np.int64
        )
        self._user_counts = np.zeros(len(self._marginals), dtype=np.int64)

    def _ingest(self, reports: MargPSReports) -> None:
        choices = np.asarray(reports.choices, dtype=np.int64)
        noisy = np.asarray(reports.noisy_cells, dtype=np.int64)
        size = len(self._marginals)
        flat = np.bincount(
            choices * self._cells + noisy, minlength=size * self._cells
        )
        self._cell_counts += flat.reshape(size, self._cells)
        self._user_counts += np.bincount(choices, minlength=size)

    def _absorb(self, other: "MargPSAccumulator") -> None:
        self._cell_counts += other._cell_counts
        self._user_counts += other._user_counts

    def _export_state(self):
        return {
            "cell_counts": self._cell_counts.copy(),
            "user_counts": self._user_counts.copy(),
        }

    def _import_state(self, state) -> None:
        self._cell_counts = take_state_array(
            state, "cell_counts", self._cell_counts.shape, np.int64
        )
        self._user_counts = take_state_array(
            state, "user_counts", self._user_counts.shape, np.int64
        )

    def _merge_signature(self):
        return self._mechanism

    def finalize(self) -> PerMarginalEstimator:
        self._require_reports()
        tables: Dict[int, np.ndarray] = {}
        for position, beta in enumerate(self._marginals):
            if self._user_counts[position] == 0:
                tables[beta] = np.full(self._cells, 1.0 / self._cells)
                continue
            tables[beta] = self._mechanism.unbias_counts(
                self._cell_counts[position], int(self._user_counts[position])
            )
        return PerMarginalEstimator(self._workload, tables)


class MargPS(MarginalReleaseProtocol):
    """Preferential sampling (GRR) on a randomly sampled k-way marginal."""

    name = "MargPS"

    def mechanism(self) -> DirectEncoding:
        """The GRR mechanism over the ``2^k`` cells of the sampled marginal."""
        return DirectEncoding.from_budget(self.budget, 1 << self.max_width)

    def encode_batch(self, records, rng: RngLike = None) -> MargPSReports:
        generator = ensure_rng(rng)
        records = as_record_matrix(records)
        marginals = sampled_marginals(records.shape[1], self.max_width)

        indices = record_indices(records)
        choices = generator.integers(0, len(marginals), size=indices.shape[0])
        user_cells = sampled_marginal_cells(indices, choices, marginals)
        noisy_cells = self.mechanism().perturb(user_cells, rng=generator)
        return MargPSReports(choices=choices, noisy_cells=noisy_cells)

    def accumulator(self, domain: Domain) -> MargPSAccumulator:
        return MargPSAccumulator(self.workload_for(domain), self.mechanism())

    def report_bounds(self, dimension: int):
        return {
            "choices": (math.comb(dimension, self.max_width),),
            "noisy_cells": (1 << self.max_width,),
        }

    def communication_bits(self, dimension: int) -> int:
        """``d`` bits to name the marginal plus ``k`` bits for the noisy cell."""
        return dimension + self.max_width
