"""InpPS — preferential sampling (generalised RR) on the full input index.

Each user reports a single index in ``{0,1}^d``: their true one-hot position
with probability ``p_s = e^eps / (e^eps + 2^d - 1)`` and a uniformly random
other index otherwise.  The aggregator unbiases the histogram of reported
indices into an estimate of the full distribution and aggregates it into
marginals.

Table 2 summary: communication ``d`` bits per user, error behaviour
``2^{k/2} 2^d / (eps sqrt(N))``.  The method degrades quickly with ``d``
because the probability of reporting the true index collapses once ``2^d``
dwarfs ``e^eps`` — exactly the behaviour the paper's Figure 4 documents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.domain import Domain
from ..core.marginals import MarginalWorkload
from ..core.rng import RngLike, ensure_rng
from ..mechanisms.direct_encoding import DirectEncoding
from .base import (
    Accumulator,
    DistributionEstimator,
    MarginalReleaseProtocol,
    as_record_matrix,
    record_indices,
    take_state_array,
)
from .wire import ReportField, WireCodableReports, register_report_schema

__all__ = ["InpPS", "InpPSReports", "InpPSAccumulator"]


@dataclass(frozen=True)
class InpPSReports(WireCodableReports):
    """One encoded batch: each user's noisy one-hot index in ``{0,1}^d``."""

    noisy_indices: np.ndarray

    @property
    def num_users(self) -> int:
        return int(self.noisy_indices.shape[0])


register_report_schema(
    "InpPS",
    InpPSReports,
    fields=(ReportField("noisy_indices", np.int64),),
)


class InpPSAccumulator(Accumulator):
    """Mergeable histogram of reported indices over ``{0,1}^d``."""

    def __init__(self, workload: MarginalWorkload, mechanism: DirectEncoding):
        super().__init__(workload)
        self._mechanism = mechanism
        self._counts = np.zeros(workload.domain.size, dtype=np.int64)

    def _ingest(self, reports: InpPSReports) -> None:
        self._counts += self._mechanism.count_reports(reports.noisy_indices)

    def _absorb(self, other: "InpPSAccumulator") -> None:
        self._counts += other._counts

    def _export_state(self):
        return {"counts": self._counts.copy()}

    def _import_state(self, state) -> None:
        self._counts = take_state_array(
            state, "counts", self._counts.shape, np.int64
        )

    def _merge_signature(self):
        return self._mechanism

    def finalize(self) -> DistributionEstimator:
        total = self._require_reports()
        distribution = self._mechanism.unbias_counts(self._counts, total)
        return DistributionEstimator(self._workload, distribution)


class InpPS(MarginalReleaseProtocol):
    """Preferential sampling applied to the full-domain one-hot index."""

    name = "InpPS"

    def mechanism(self, dimension: int) -> DirectEncoding:
        """The generalised-RR mechanism over the full domain ``{0,1}^d``."""
        return DirectEncoding.from_budget(self.budget, 1 << dimension)

    def encode_batch(self, records, rng: RngLike = None) -> InpPSReports:
        generator = ensure_rng(rng)
        records = as_record_matrix(records)
        mechanism = self.mechanism(records.shape[1])
        noisy = mechanism.perturb(record_indices(records), rng=generator)
        return InpPSReports(noisy_indices=noisy)

    def accumulator(self, domain: Domain) -> InpPSAccumulator:
        return InpPSAccumulator(
            self.workload_for(domain), self.mechanism(domain.dimension)
        )

    def report_bounds(self, dimension: int):
        return {"noisy_indices": (1 << dimension,)}

    def communication_bits(self, dimension: int) -> int:
        """Each user sends one index from ``{0,1}^d``: ``d`` bits."""
        return dimension
