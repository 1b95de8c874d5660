"""Prefix-tree heavy-hitter discovery over per-level frequency estimates.

The :class:`HeavyHitterEstimator` produced by the ``HH`` accumulator carries
one reconstructed prefix distribution per level (level ``l`` covers the
first ``b_l`` record bits, the last level the full domain).  Discovery walks
those levels TreeHist/PEM-style:

1. every cell of the first level's prefix domain is a candidate;
2. candidates whose estimated frequency falls below the level threshold are
   pruned — by default the threshold is the one-sided resolution of the
   level's oracle (the confidence half-width from
   :func:`repro.theory.bounds.frequency_confidence_half_width` at that
   level's population), so pruning only discards prefixes the level cannot
   statistically distinguish from zero;
3. each survivor ``p`` expands into its children ``p | (x << b_l)`` on the
   next level, and the walk repeats;
4. the survivors of the final (full-width) level are ranked by estimated
   frequency and the top ``k`` are emitted with normal confidence
   intervals.

A level whose threshold eliminates every candidate keeps its top ``k``
instead (discovery always returns *something*; the caller sees the
thresholds it ran under in the :class:`DiscoveryResult`).  Because each
heavy hitter is an assignment over all ``d`` binary attributes, the set
bits of its index read directly as a frequent *itemset* — the estimator
also answers itemset-frequency queries for any attribute subset inside the
workload width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core import bitops
from ..core.exceptions import ProtocolConfigurationError
from ..core.marginals import MarginalWorkload
from ..protocols.base import DistributionEstimator, as_record_matrix, record_indices
from ..theory.bounds import frequency_confidence_half_width

__all__ = [
    "DiscoveryConfig",
    "HeavyHitter",
    "DiscoveryResult",
    "HeavyHitterEstimator",
    "exact_top_k",
    "precision_recall",
]


@dataclass(frozen=True)
class DiscoveryConfig:
    """The ``HH`` protocol knobs the estimator needs to run discovery.

    ``threshold == 0.0`` means adaptive: each level prunes at its own
    oracle resolution (confidence half-width at that level's population).
    """

    oracle: str
    epsilon: float
    fanout: int
    threshold: float
    top_k: int
    num_hashes: int
    width: int


@dataclass(frozen=True)
class HeavyHitter:
    """One discovered element: a full-domain cell and its frequency."""

    index: int
    #: Names of the attributes set to 1 in ``index`` — the itemset reading.
    attributes: Tuple[str, ...]
    frequency: float
    #: Half-width of the two-sided normal CI on ``frequency``.
    half_width: float


@dataclass(frozen=True)
class DiscoveryResult:
    """Ranked top-k plus the per-level walk that produced it."""

    hitters: Tuple[HeavyHitter, ...]
    level_bits: Tuple[int, ...]
    level_reports: Tuple[int, ...]
    thresholds: Tuple[float, ...]
    candidates_per_level: Tuple[int, ...]
    survivors_per_level: Tuple[int, ...]
    confidence: float

    @property
    def indices(self) -> Tuple[int, ...]:
        """Discovered cell indices, ranked most frequent first."""
        return tuple(hitter.index for hitter in self.hitters)

    def to_dict(self) -> Dict:
        """JSON-ready form (the ``discovery`` key of a release's JSON)."""
        return {
            "hitters": [
                {
                    "index": hitter.index,
                    "attributes": list(hitter.attributes),
                    "frequency": hitter.frequency,
                    "half_width": hitter.half_width,
                }
                for hitter in self.hitters
            ],
            "level_bits": list(self.level_bits),
            "level_reports": list(self.level_reports),
            "thresholds": [float(value) for value in self.thresholds],
            "candidates_per_level": list(self.candidates_per_level),
            "survivors_per_level": list(self.survivors_per_level),
            "confidence": self.confidence,
        }


def exact_top_k(records, k: int) -> Tuple[int, ...]:
    """The true top-``k`` cells of a dataset, ranked by (-count, index).

    The ground truth against which discovery precision/recall is scored in
    the benchmark harness and the CI smoke job.
    """
    if k < 1:
        raise ProtocolConfigurationError(f"top-k must be >= 1, got {k}")
    matrix = as_record_matrix(records)
    counts = np.bincount(record_indices(matrix), minlength=1 << matrix.shape[1])
    order = np.lexsort((np.arange(counts.size), -counts))
    return tuple(int(index) for index in order[:k])


def precision_recall(
    discovered: Iterable[int], exact: Iterable[int]
) -> Tuple[float, float]:
    """Set precision/recall of discovered indices against the exact top-k."""
    found = set(int(index) for index in discovered)
    truth = set(int(index) for index in exact)
    if not found or not truth:
        return 0.0, 0.0
    hits = len(found & truth)
    return hits / len(found), hits / len(truth)


class HeavyHitterEstimator(DistributionEstimator):
    """Marginal estimator plus level-wise prefix discovery.

    Behaves exactly like a :class:`DistributionEstimator` over the final
    level's full-domain distribution (so every generic marginal query,
    session and topology path treats ``HH`` like any other protocol) and
    additionally exposes :meth:`discover` over the per-level prefix
    distributions.
    """

    def __init__(
        self,
        workload: MarginalWorkload,
        level_bits: Sequence[int],
        level_distributions: Sequence[np.ndarray],
        level_reports: Sequence[int],
        config: DiscoveryConfig,
    ):
        level_bits = tuple(int(bits) for bits in level_bits)
        distributions = tuple(
            np.asarray(values, dtype=np.float64) for values in level_distributions
        )
        if len(distributions) != len(level_bits):
            raise ProtocolConfigurationError(
                f"{len(level_bits)} levels but {len(distributions)} "
                f"distributions"
            )
        for bits, values in zip(level_bits, distributions):
            if values.shape != (1 << bits,):
                raise ProtocolConfigurationError(
                    f"level with {bits} prefix bits needs {1 << bits} cells, "
                    f"got shape {values.shape}"
                )
        super().__init__(workload, distributions[-1])
        self._level_bits = level_bits
        self._level_distributions = distributions
        self._level_reports = tuple(int(count) for count in level_reports)
        self._config = config

    @property
    def level_bits(self) -> Tuple[int, ...]:
        """Prefix bits covered by each level (the last equals ``d``)."""
        return self._level_bits

    @property
    def level_reports(self) -> Tuple[int, ...]:
        """Reports folded into each level (the user partition sizes)."""
        return self._level_reports

    @property
    def level_distributions(self) -> Tuple[np.ndarray, ...]:
        """Reconstructed prefix distribution of each level."""
        return self._level_distributions

    @property
    def config(self) -> DiscoveryConfig:
        return self._config

    def _level_half_width(
        self, level: int, confidence: float
    ) -> float:
        return frequency_confidence_half_width(
            self._config.oracle,
            self._config.epsilon,
            self._level_reports[level],
            1 << self._level_bits[level],
            confidence=confidence,
            num_hashes=self._config.num_hashes,
            width=self._config.width,
        )

    def discover(
        self,
        top_k: Optional[int] = None,
        threshold: Optional[float] = None,
        confidence: float = 0.95,
    ) -> DiscoveryResult:
        """Walk the prefix levels and return the ranked top-k.

        ``threshold`` overrides the protocol's pruning threshold for every
        level; ``None`` keeps the configured one (adaptive per level when
        the protocol was built with ``threshold=0``).
        """
        keep = int(top_k) if top_k is not None else self._config.top_k
        if keep < 1:
            raise ProtocolConfigurationError(f"top-k must be >= 1, got {keep}")
        fixed = float(threshold) if threshold is not None else self._config.threshold
        if fixed < 0:
            raise ProtocolConfigurationError(
                f"pruning threshold must be >= 0, got {fixed}"
            )

        thresholds: List[float] = []
        candidate_counts: List[int] = []
        survivor_counts: List[int] = []
        candidates = np.arange(1 << self._level_bits[0], dtype=np.int64)
        for level, bits in enumerate(self._level_bits):
            candidate_counts.append(int(candidates.size))
            cut = fixed if fixed > 0 else self._level_half_width(level, confidence)
            thresholds.append(float(cut))
            frequencies = self._level_distributions[level][candidates]
            survivors = candidates[frequencies >= cut]
            if survivors.size == 0:
                # Nothing clears the bar (tiny level population or a harsh
                # manual threshold): keep the level's best ``keep`` prefixes
                # so discovery still emits a ranked answer.
                order = np.lexsort((candidates, -frequencies))
                survivors = np.sort(candidates[order[:keep]])
            survivor_counts.append(int(survivors.size))
            if level + 1 < len(self._level_bits):
                extension_bits = self._level_bits[level + 1] - bits
                extensions = np.arange(1 << extension_bits, dtype=np.int64)
                candidates = (
                    survivors[:, None] | (extensions[None, :] << bits)
                ).reshape(-1)
            else:
                candidates = survivors

        final = self._level_distributions[-1]
        frequencies = final[candidates]
        order = np.lexsort((candidates, -frequencies))
        chosen = candidates[order[:keep]]
        half_width = self._level_half_width(len(self._level_bits) - 1, confidence)
        hitters = tuple(
            HeavyHitter(
                index=int(index),
                attributes=tuple(self.domain.names_of(int(index))),
                frequency=float(final[index]),
                half_width=float(half_width),
            )
            for index in chosen
        )
        return DiscoveryResult(
            hitters=hitters,
            level_bits=self._level_bits,
            level_reports=self._level_reports,
            thresholds=tuple(thresholds),
            candidates_per_level=tuple(candidate_counts),
            survivors_per_level=tuple(survivor_counts),
            confidence=float(confidence),
        )

    def itemset_frequency(self, attributes) -> float:
        """Estimated frequency of the itemset "all of ``attributes`` are 1".

        ``attributes`` is anything :meth:`Domain.mask_of` accepts (names or
        a mask) of width at most the workload's ``k``; the all-ones cell of
        that marginal is exactly the itemset frequency.
        """
        mask = self.domain.mask_of(attributes)
        return float(self.query(mask).values[-1])

    def frequent_itemsets(
        self, min_frequency: float, max_size: Optional[int] = None
    ) -> List[Tuple[Tuple[str, ...], float]]:
        """All attribute subsets whose all-ones frequency clears a bar.

        Enumerates every workload marginal of width at most ``max_size``
        (default: the workload width) and keeps the itemsets with estimated
        frequency at least ``min_frequency``, sorted most frequent first.
        """
        limit = self.workload.max_width if max_size is None else int(max_size)
        if not 1 <= limit <= self.workload.max_width:
            raise ProtocolConfigurationError(
                f"itemset size must lie in [1, {self.workload.max_width}], "
                f"got {limit}"
            )
        found: List[Tuple[Tuple[str, ...], float]] = []
        for beta in self.workload.marginals():
            if bitops.popcount(beta) > limit:
                continue
            frequency = self.itemset_frequency(beta)
            if frequency >= min_frequency:
                found.append((tuple(self.domain.names_of(beta)), frequency))
        found.sort(key=lambda item: (-item[1], item[0]))
        return found
