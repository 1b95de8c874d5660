"""InpOLH — marginals via the Optimised Local Hashing frequency oracle.

A generic way to materialise marginals under LDP is to run any frequency
oracle over the flattened domain ``{0,1}^d`` and aggregate the estimated cell
frequencies into marginals.  This protocol instantiates that approach with
Wang et al.'s OLH oracle, which the paper evaluates in Appendix B.2
(Figure 10): accurate for small ``d`` but with an aggregation cost of
``O(N * 2^d)`` that stops scaling well before the paper's larger dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.domain import Domain
from ..core.exceptions import AggregationError
from ..core.marginals import MarginalWorkload
from ..core.privacy import PrivacyBudget
from ..core.rng import RngLike, ensure_rng
from ..mechanisms.local_hashing import SEED_BOUND, OptimizedLocalHashing
from .base import (
    Accumulator,
    DistributionEstimator,
    MarginalReleaseProtocol,
    as_record_matrix,
    record_indices,
    take_state_array,
)
from .wire import ReportField, WireCodableReports, register_report_schema

__all__ = ["InpOLH", "InpOLHReports", "InpOLHAccumulator"]


@dataclass(frozen=True)
class InpOLHReports(WireCodableReports):
    """One encoded batch: per-user hash seeds and noisy buckets."""

    seeds: np.ndarray
    noisy_buckets: np.ndarray

    @property
    def num_users(self) -> int:
        return int(self.seeds.shape[0])


register_report_schema(
    "InpOLH",
    InpOLHReports,
    fields=(
        ReportField("seeds", np.int64),
        ReportField("noisy_buckets", np.int64),
    ),
)


class InpOLHAccumulator(Accumulator):
    """Mergeable per-element support counts (constant ``O(2^d)`` memory).

    Decoding each report batch into support counts at ``update`` time keeps
    the accumulator's size independent of the number of users — the reports
    themselves are dropped once folded in.
    """

    def __init__(self, workload: MarginalWorkload, oracle: OptimizedLocalHashing):
        super().__init__(workload)
        self._oracle = oracle
        self._support = np.zeros(workload.domain.size, dtype=np.float64)

    @property
    def oracle(self) -> OptimizedLocalHashing:
        """The OLH oracle this accumulator decodes with."""
        return self._oracle

    def _ingest(self, reports: InpOLHReports) -> None:
        self._support += self._oracle.support_counts(
            reports.seeds, reports.noisy_buckets
        )

    def add_support(self, support: np.ndarray, num_reports: int) -> None:
        """Fold ``num_reports`` reports already decoded into ``support``
        counts by a kernel backend: the part of :meth:`update` after its
        decode, for callers that decode many accumulators' reports at once
        (the heavy-hitter levels)."""
        if support.shape != self._support.shape or num_reports < 0:
            raise AggregationError(
                f"support counts must have shape {self._support.shape} and "
                f"cover >= 0 reports, got {support.shape} for {num_reports}"
            )
        self._support += support
        self._num_reports += num_reports

    def _absorb(self, other: "InpOLHAccumulator") -> None:
        self._support += other._support

    def _export_state(self):
        return {"support": self._support.copy()}

    def _import_state(self, state) -> None:
        self._support = take_state_array(
            state, "support", self._support.shape, np.float64
        )

    def _merge_signature(self):
        return self._oracle

    def finalize(self) -> DistributionEstimator:
        total = self._require_reports()
        distribution = self._oracle.estimate_from_support(self._support, total)
        return DistributionEstimator(self._workload, distribution)


class InpOLH(MarginalReleaseProtocol):
    """Optimised Local Hashing applied to the full-domain index."""

    name = "InpOLH"

    def __init__(
        self,
        budget: PrivacyBudget,
        max_width: int,
        num_buckets: int = 0,
    ):
        super().__init__(budget, max_width)
        self._num_buckets = int(num_buckets)

    def spec_options(self):
        return {"num_buckets": self._num_buckets}

    def oracle(self, dimension: int) -> OptimizedLocalHashing:
        """The OLH frequency oracle over ``{0,1}^d``."""
        return OptimizedLocalHashing(
            domain_size=1 << dimension,
            budget=self.budget,
            num_buckets=self._num_buckets,
        )

    def encode_batch(self, records, rng: RngLike = None) -> InpOLHReports:
        generator = ensure_rng(rng)
        records = as_record_matrix(records)
        oracle = self.oracle(records.shape[1])
        seeds, noisy = oracle.perturb(record_indices(records), rng=generator)
        return InpOLHReports(seeds=seeds, noisy_buckets=noisy)

    def accumulator(self, domain: Domain) -> InpOLHAccumulator:
        return InpOLHAccumulator(
            self.workload_for(domain), self.oracle(domain.dimension)
        )

    def report_bounds(self, dimension: int):
        return {
            "seeds": (SEED_BOUND,),
            "noisy_buckets": (self.oracle(dimension).num_buckets,),
        }

    def communication_bits(self, dimension: int) -> int:
        """A hash-function identifier (64 bits in this implementation) plus
        the noisy bucket (``ceil(log2 g)`` bits, a handful for small eps)."""
        oracle = self.oracle(dimension)
        bucket_bits = max(1, (oracle.num_buckets - 1).bit_length())
        return 64 + bucket_bits
