"""InpHTCMS — marginals via the Hadamard Count-Mean Sketch frequency oracle.

The second frequency-oracle baseline of Appendix B.2 (Figure 10): Apple's
Hadamard count-mean sketch estimates the frequency of every cell of the
flattened domain, and marginals are produced by aggregating those estimates.
The sketch is tuned for heavy hitters, not for the very flat distributions
marginal reconstruction needs, so it is fast but comparatively inaccurate —
the behaviour the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.domain import Domain
from ..core.marginals import MarginalWorkload
from ..core.privacy import PrivacyBudget
from ..core.rng import RngLike, ensure_rng
from ..mechanisms.sketch import HadamardCountMeanSketch
from .base import (
    Accumulator,
    DistributionEstimator,
    MarginalReleaseProtocol,
    as_record_matrix,
    record_indices,
    take_state_array,
)
from .wire import ReportField, WireCodableReports, register_report_schema

__all__ = ["InpHTCMS", "InpHTCMSReports", "InpHTCMSAccumulator"]


@dataclass(frozen=True)
class InpHTCMSReports(WireCodableReports):
    """One encoded batch: sampled (hash, coefficient) indices + noisy signs."""

    hash_indices: np.ndarray
    coefficient_indices: np.ndarray
    noisy_signs: np.ndarray

    @property
    def num_users(self) -> int:
        return int(self.hash_indices.shape[0])


register_report_schema(
    "InpHTCMS",
    InpHTCMSReports,
    fields=(
        ReportField("hash_indices", np.int64),
        ReportField("coefficient_indices", np.int64),
        ReportField("noisy_signs", np.float64, sign=True),
    ),
)


class InpHTCMSAccumulator(Accumulator):
    """Mergeable ``g x w`` sums of noisy signs (the sketch's raw state)."""

    def __init__(self, workload: MarginalWorkload, oracle: HadamardCountMeanSketch):
        super().__init__(workload)
        self._oracle = oracle
        self._sign_sums = np.zeros(
            (oracle.num_hashes, oracle.width), dtype=np.float64
        )

    def _ingest(self, reports: InpHTCMSReports) -> None:
        self._sign_sums += self._oracle.sign_sums(
            reports.hash_indices, reports.coefficient_indices, reports.noisy_signs
        )

    def _absorb(self, other: "InpHTCMSAccumulator") -> None:
        self._sign_sums += other._sign_sums

    def _export_state(self):
        return {"sign_sums": self._sign_sums.copy()}

    def _import_state(self, state) -> None:
        self._sign_sums = take_state_array(
            state, "sign_sums", self._sign_sums.shape, np.float64
        )

    def _merge_signature(self):
        return self._oracle

    def finalize(self) -> DistributionEstimator:
        total = self._require_reports()
        sketch = self._oracle.sketch_from_sums(self._sign_sums, total)
        distribution = self._oracle.frequencies_from_sketch(sketch)
        return DistributionEstimator(self._workload, distribution)


class InpHTCMS(MarginalReleaseProtocol):
    """Hadamard count-mean sketch applied to the full-domain index."""

    name = "InpHTCMS"

    def __init__(
        self,
        budget: PrivacyBudget,
        max_width: int,
        num_hashes: int = 5,
        width: int = 256,
    ):
        super().__init__(budget, max_width)
        self._num_hashes = int(num_hashes)
        self._width = int(width)

    def spec_options(self):
        return {"num_hashes": self._num_hashes, "width": self._width}

    def oracle(self, dimension: int) -> HadamardCountMeanSketch:
        """The HCMS frequency oracle over ``{0,1}^d``."""
        return HadamardCountMeanSketch(
            domain_size=1 << dimension,
            budget=self.budget,
            num_hashes=self._num_hashes,
            width=self._width,
        )

    def encode_batch(self, records, rng: RngLike = None) -> InpHTCMSReports:
        generator = ensure_rng(rng)
        records = as_record_matrix(records)
        oracle = self.oracle(records.shape[1])
        hash_indices, coefficient_indices, noisy = oracle.perturb(
            record_indices(records), rng=generator
        )
        return InpHTCMSReports(
            hash_indices=hash_indices,
            coefficient_indices=coefficient_indices,
            noisy_signs=noisy,
        )

    def accumulator(self, domain: Domain) -> InpHTCMSAccumulator:
        return InpHTCMSAccumulator(
            self.workload_for(domain), self.oracle(domain.dimension)
        )

    def report_bounds(self, dimension: int):
        return {
            "hash_indices": (self._num_hashes,),
            "coefficient_indices": (self._width,),
        }

    def communication_bits(self, dimension: int) -> int:
        """Hash index + coefficient index + one noisy sign bit."""
        hash_bits = max(1, (self._num_hashes - 1).bit_length())
        coefficient_bits = max(1, (self._width - 1).bit_length())
        return hash_bits + coefficient_bits + 1
