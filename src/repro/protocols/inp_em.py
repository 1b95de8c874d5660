"""InpEM — budget-split randomized response with EM decoding (Fanti et al.).

This is the paper's point of comparison from prior work (Section 4.4): each
user perturbs each of their ``d`` attribute bits independently with
``eps/d``-randomized response (budget splitting), and the aggregator decodes
a requested marginal with an expectation–maximisation loop over the joint
distribution of the selected attributes.

The method has no worst-case accuracy guarantee.  The paper documents two
practical failure modes which this implementation surfaces explicitly:

* the EM loop can satisfy its convergence threshold immediately and return
  the uniform prior (counted as a *failure*, cf. Table 3);
* convergence can take thousands of iterations, far slower than the closed
  form estimators of the other protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..core import bitops
from ..core.domain import Domain
from ..core.exceptions import ProtocolConfigurationError
from ..core.marginals import MarginalTable, MarginalWorkload
from ..core.privacy import PrivacyBudget
from ..core.rng import RngLike, ensure_rng
from ..mechanisms.randomized_response import BitRandomizedResponse
from .base import (
    Accumulator,
    MarginalEstimator,
    MarginalReleaseProtocol,
    as_record_matrix,
    record_indices,
    take_state_array,
)
from .wire import ReportField, WireCodableReports, register_report_schema

__all__ = ["EMDecodingResult", "EMEstimator", "InpEM", "InpEMReports", "InpEMAccumulator"]


@dataclass(frozen=True)
class EMDecodingResult:
    """Diagnostics of one EM decode.

    Attributes
    ----------
    table:
        The decoded marginal.
    iterations:
        Number of EM iterations performed.
    converged:
        Whether the stopping threshold was reached before the iteration cap.
    failed:
        The paper's failure criterion: the loop terminated immediately
        (within one iteration) and returned (essentially) the uniform prior.
    """

    table: MarginalTable
    iterations: int
    converged: bool
    failed: bool


class EMEstimator(MarginalEstimator):
    """Answers marginal queries by running EM on the noisy pattern histogram.

    The estimator holds the ``2^d`` histogram of observed noisy records — a
    sufficient statistic for EM, since the decode only ever consumes the
    pattern fractions over the queried attributes.  Each query marginalises
    the histogram (``O(2^d)`` work) instead of re-scanning all ``N`` noisy
    records, and the per-width likelihood matrix is cached across queries.
    """

    def __init__(
        self,
        workload: MarginalWorkload,
        pattern_counts: np.ndarray,
        keep_probability: float,
        convergence_threshold: float,
        max_iterations: int,
    ):
        super().__init__(workload)
        pattern_counts = np.asarray(pattern_counts, dtype=np.int64)
        if pattern_counts.shape != (workload.domain.size,):
            raise ProtocolConfigurationError(
                f"pattern histogram must have shape ({workload.domain.size},), "
                f"got {pattern_counts.shape}"
            )
        self._pattern_counts = pattern_counts
        self._keep_probability = float(keep_probability)
        self._threshold = float(convergence_threshold)
        self._max_iterations = int(max_iterations)
        self._likelihood_cache: Dict[int, np.ndarray] = {}
        self._pattern_weights = self._pattern_counts.astype(np.float64)

    @classmethod
    def from_noisy_records(
        cls,
        workload: MarginalWorkload,
        noisy_records: np.ndarray,
        keep_probability: float,
        convergence_threshold: float,
        max_iterations: int,
    ) -> "EMEstimator":
        """Build the estimator from raw ``(N, d)`` noisy record rows."""
        noisy_records = np.asarray(noisy_records, dtype=np.int8)
        if noisy_records.ndim != 2 or noisy_records.shape[1] != workload.dimension:
            raise ProtocolConfigurationError(
                f"noisy records must have shape (N, {workload.dimension}), "
                f"got {noisy_records.shape}"
            )
        counts = np.bincount(
            record_indices(noisy_records), minlength=workload.domain.size
        )
        return cls(
            workload,
            counts,
            keep_probability=keep_probability,
            convergence_threshold=convergence_threshold,
            max_iterations=max_iterations,
        )

    @property
    def keep_probability(self) -> float:
        """Per-bit RR keep probability (at budget eps/d)."""
        return self._keep_probability

    @property
    def pattern_counts(self) -> np.ndarray:
        """The ``2^d`` histogram of observed noisy records (a copy)."""
        return self._pattern_counts.copy()

    def _likelihood(self, k: int) -> np.ndarray:
        """``P[observe pattern y | true pattern x]`` for a width-``k`` marginal.

        Depends only on ``k`` and the keep probability, so it is cached —
        full 2-way workloads reuse one ``2^k x 2^k`` matrix across all
        ``C(d, 2)`` queries.
        """
        cached = self._likelihood_cache.get(k)
        if cached is None:
            cells = 1 << k
            p = self._keep_probability
            hamming = bitops.popcount(
                np.arange(cells)[:, None] ^ np.arange(cells)[None, :]
            )
            cached = (p ** (k - hamming)) * ((1.0 - p) ** hamming)  # [y, x]
            self._likelihood_cache[k] = cached
        return cached

    def query(self, beta) -> MarginalTable:
        return self.query_with_diagnostics(beta).table

    def query_with_diagnostics(self, beta) -> EMDecodingResult:
        """Run the EM decode for one marginal and return diagnostics."""
        mask = self._validate(beta)
        k = bitops.popcount(mask)
        cells = 1 << k

        # Histogram of observed noisy patterns over the selected attributes,
        # by marginalising the full-domain histogram.  The sums are integer
        # valued, so they equal a direct per-record bincount exactly.
        compact = bitops.compress_indices(
            np.arange(self.domain.size, dtype=np.int64), mask
        )
        pattern_counts = np.bincount(
            compact, weights=self._pattern_weights, minlength=cells
        )
        pattern_fractions = pattern_counts / pattern_counts.sum()

        likelihood = self._likelihood(k)

        prior = np.full(cells, 1.0 / cells)
        iterations = 0
        converged = False
        while iterations < self._max_iterations:
            iterations += 1
            # E-step: posterior over true cells for each observed pattern.
            joint = likelihood * prior[None, :]
            denominator = joint.sum(axis=1, keepdims=True)
            denominator[denominator == 0] = 1.0
            posterior = joint / denominator
            # M-step: new prior is the pattern-weighted average posterior.
            updated = pattern_fractions @ posterior
            change = float(np.abs(updated - prior).max())
            prior = updated
            if change < self._threshold:
                converged = True
                break

        uniform_distance = float(np.abs(prior - 1.0 / cells).max())
        failed = iterations <= 1 and uniform_distance < 10 * self._threshold
        table = MarginalTable(self.domain, mask, prior)
        return EMDecodingResult(
            table=table, iterations=iterations, converged=converged, failed=failed
        )


@dataclass(frozen=True)
class InpEMReports(WireCodableReports):
    """One encoded batch: the per-attribute RR-perturbed record rows."""

    noisy_records: np.ndarray

    @property
    def num_users(self) -> int:
        return int(self.noisy_records.shape[0])


register_report_schema(
    "InpEM",
    InpEMReports,
    fields=(ReportField("noisy_records", np.int8, ndim=2),),
)


class InpEMAccumulator(Accumulator):
    """Folds noisy record batches into a ``2^d`` pattern histogram.

    The EM decode only ever consumes the histogram of observed noisy joint
    patterns, so that histogram is a *sufficient statistic*: folding each
    batch into per-pattern counts at ``update`` time keeps the state
    ``O(2^d)`` — independent of the number of users — while remaining an
    exact integer-sum merge algebra (shard/merge order is invisible
    bit-for-bit, like every other protocol's accumulator).
    """

    def __init__(
        self,
        workload: MarginalWorkload,
        keep_probability: float,
        convergence_threshold: float,
        max_iterations: int,
    ):
        super().__init__(workload)
        self._keep_probability = float(keep_probability)
        self._threshold = float(convergence_threshold)
        self._max_iterations = int(max_iterations)
        self._pattern_counts = np.zeros(workload.domain.size, dtype=np.int64)

    def _ingest(self, reports: InpEMReports) -> None:
        noisy = np.asarray(reports.noisy_records, dtype=np.int8)
        if noisy.ndim != 2 or noisy.shape[1] != self._workload.dimension:
            raise ProtocolConfigurationError(
                f"noisy records must have shape (n, {self._workload.dimension}), "
                f"got {noisy.shape}"
            )
        self._pattern_counts += np.bincount(
            record_indices(noisy), minlength=self._workload.domain.size
        )

    def _absorb(self, other: "InpEMAccumulator") -> None:
        self._pattern_counts += other._pattern_counts

    def _export_state(self):
        return {"pattern_counts": self._pattern_counts.copy()}

    def _import_state(self, state) -> None:
        self._pattern_counts = take_state_array(
            state, "pattern_counts", self._pattern_counts.shape, np.int64
        )

    def _merge_signature(self):
        return (self._keep_probability, self._threshold, self._max_iterations)

    def finalize(self) -> "EMEstimator":
        self._require_reports()
        return EMEstimator(
            self._workload,
            self._pattern_counts.copy(),
            keep_probability=self._keep_probability,
            convergence_threshold=self._threshold,
            max_iterations=self._max_iterations,
        )


class InpEM(MarginalReleaseProtocol):
    """Budget-split per-attribute RR with EM decoding (Fanti et al. baseline)."""

    name = "InpEM"

    def __init__(
        self,
        budget: PrivacyBudget,
        max_width: int = 2,
        convergence_threshold: float = 1e-5,
        max_iterations: int = 10000,
    ):
        super().__init__(budget, max_width)
        if convergence_threshold <= 0:
            raise ProtocolConfigurationError(
                f"convergence threshold must be positive, got {convergence_threshold}"
            )
        if max_iterations < 1:
            raise ProtocolConfigurationError(
                f"max iterations must be >= 1, got {max_iterations}"
            )
        self._threshold = float(convergence_threshold)
        self._max_iterations = int(max_iterations)

    @property
    def convergence_threshold(self) -> float:
        """The EM stopping threshold Omega (the paper uses 1e-5)."""
        return self._threshold

    def spec_options(self):
        return {
            "convergence_threshold": self._threshold,
            "max_iterations": self._max_iterations,
        }

    def per_attribute_mechanism(self, dimension: int) -> BitRandomizedResponse:
        """The eps/d randomized response applied to every attribute bit."""
        return BitRandomizedResponse.from_budget(self.budget.split(dimension))

    def encode_batch(self, records, rng: RngLike = None) -> InpEMReports:
        generator = ensure_rng(rng)
        records = as_record_matrix(records)
        mechanism = self.per_attribute_mechanism(records.shape[1])
        noisy = mechanism.perturb(records, rng=generator)
        return InpEMReports(noisy_records=noisy)

    def accumulator(self, domain: Domain) -> InpEMAccumulator:
        mechanism = self.per_attribute_mechanism(domain.dimension)
        return InpEMAccumulator(
            self.workload_for(domain),
            keep_probability=mechanism.keep_probability,
            convergence_threshold=self._threshold,
            max_iterations=self._max_iterations,
        )

    def report_bounds(self, dimension: int):
        return {"noisy_records": (2,) * dimension}

    def communication_bits(self, dimension: int) -> int:
        """Each user sends one noisy bit per attribute."""
        return dimension
