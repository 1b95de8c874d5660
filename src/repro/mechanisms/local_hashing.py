"""Optimised Local Hashing (OLH), Wang et al., USENIX Security 2017.

OLH is a generic LDP *frequency oracle* for large categorical domains: each
user samples a universal hash function mapping the domain onto ``g`` buckets
(optimally ``g = floor(e^eps) + 1``), hashes their value, and reports the
bucket through generalised randomized response over ``g`` categories.  The
aggregator estimates the frequency of any domain element ``x`` from the
fraction of users whose report equals their own hash of ``x``.

The paper uses OLH (as ``InpOLH``) as a baseline way to materialise marginals
by estimating all ``2^d`` cell frequencies and aggregating, and observes that
its decoding cost (``O(N * 2^d)``) quickly becomes the bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import math

import numpy as np

from ..core.backends import _SEED_MIX, _avalanche, fold_buckets, resolve_backend
from ..core.exceptions import ProtocolConfigurationError
from ..core.privacy import PrivacyBudget
from ..core.rng import RngLike, ensure_rng
from .direct_encoding import DirectEncoding

__all__ = ["OptimizedLocalHashing", "DEFAULT_DECODE_BATCH_SIZE"]

# Parameters of a simple multiply-shift universal hash family on 64-bit keys.
_MULTIPLIER_BITS = 61
_MERSENNE_PRIME = (1 << 61) - 1

#: Default cap on the number of domain elements hashed per decode block,
#: exposed as ``OptimizedLocalHashing.decode_batch_size`` /
#: ``InpOLH(..., decode_batch_size=...)`` for tuning.  It does not set the
#: memory of the scan: the numpy kernel fills each tile with as many users
#: as fit its fixed L2-sized element budget at the block's real width
#: (``min(decode_batch_size, domain_size)``), so a wide block only means
#: fewer users per tile; the native kernel sweeps every user over one
#: block's counters, which stay in L1 at this width.
DEFAULT_DECODE_BATCH_SIZE = 1024

def _hash(values: np.ndarray, seeds: np.ndarray, buckets: int) -> np.ndarray:
    """Vectorised universal-style hash ``h_seed(value) -> [0, buckets)``.

    Mixes the (value, seed) pair through a splitmix64-style avalanche so that
    even small, sequential domains spread uniformly — a plain affine
    multiply-mod hash is far too regular on ``0..2^d - 1`` inputs and would
    bias the collision-debiasing step of the oracles built on top.  The
    avalanche and bucket fold live in :mod:`repro.core.backends` so the
    client-side hash and every decode backend share one definition.
    """
    values = np.asarray(values, dtype=np.uint64)
    seeds = np.asarray(seeds, dtype=np.uint64)
    with np.errstate(over="ignore"):
        mixed = _avalanche(values + seeds * _SEED_MIX)
    return fold_buckets(mixed, buckets).astype(np.int64)


@dataclass(frozen=True)
class OptimizedLocalHashing:
    """The OLH frequency oracle.

    Attributes
    ----------
    domain_size:
        Size of the (flattened) input domain, ``2^d`` for binary data.
    budget:
        The epsilon-LDP budget each user's single report satisfies.
    num_buckets:
        Hash range ``g``; defaults to the variance-optimal
        ``floor(e^eps) + 1``.
    decode_batch_size:
        Domain elements hashed per decode block in :meth:`support_counts`
        (``0`` selects :data:`DEFAULT_DECODE_BATCH_SIZE`), by every kernel
        backend: the numpy scan's tile width and the native scan's outer
        loop.  A pure performance knob: the counts are exact for any
        value, so it is excluded from equality/merge-signature comparisons.
    kernel_backend:
        Which kernel backend decodes support counts (``""`` defers to
        :func:`repro.core.backends.resolve_backend`'s env/default chain).
        Every backend produces identical counts, so this is a pure
        performance knob like ``decode_batch_size``.
    """

    domain_size: int
    budget: PrivacyBudget
    num_buckets: int = 0
    decode_batch_size: int = field(default=0, compare=False)
    kernel_backend: str = field(default="", compare=False)

    def __post_init__(self):
        if int(self.domain_size) < 2:
            raise ProtocolConfigurationError(
                f"domain size must be >= 2, got {self.domain_size}"
            )
        buckets = int(self.num_buckets)
        if buckets <= 0:
            buckets = int(math.floor(self.budget.exp_epsilon)) + 1
        if buckets < 2:
            buckets = 2
        decode_batch = int(self.decode_batch_size)
        if decode_batch < 0:
            raise ProtocolConfigurationError(
                f"decode batch size must be >= 0 (0 = default), got {decode_batch}"
            )
        if decode_batch == 0:
            decode_batch = DEFAULT_DECODE_BATCH_SIZE
        if not isinstance(self.kernel_backend, str):
            raise ProtocolConfigurationError(
                f"kernel_backend must be a backend name string, got "
                f"{type(self.kernel_backend).__name__}"
            )
        object.__setattr__(self, "domain_size", int(self.domain_size))
        object.__setattr__(self, "num_buckets", buckets)
        object.__setattr__(self, "decode_batch_size", decode_batch)

    @property
    def encoder(self) -> DirectEncoding:
        """The GRR mechanism applied to the hashed value."""
        return DirectEncoding.from_budget(self.budget, self.num_buckets)

    # ------------------------------------------------------------------ #
    # Client side
    # ------------------------------------------------------------------ #
    def perturb(
        self, values: np.ndarray, rng: RngLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Produce per-user reports ``(hash_seeds, noisy_buckets)``."""
        generator = ensure_rng(rng)
        values = np.asarray(values, dtype=np.int64)
        if values.size == 0:
            # An empty report batch is a valid (if trivial) streaming chunk.
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy()
        if values.min() < 0 or values.max() >= self.domain_size:
            raise ProtocolConfigurationError(
                f"values must lie in [0, {self.domain_size})"
            )
        seeds = generator.integers(1, 2**62, size=values.shape[0], dtype=np.int64)
        buckets = _hash(values, seeds, self.num_buckets)
        noisy = self.encoder.perturb(buckets, rng=generator)
        return seeds, noisy

    # ------------------------------------------------------------------ #
    # Aggregator side
    # ------------------------------------------------------------------ #
    def support_counts(
        self, seeds: np.ndarray, noisy_buckets: np.ndarray, batch_size: int = 0
    ) -> np.ndarray:
        """Per-element support counts — OLH's mergeable aggregation state.

        The support count of element ``x`` is the number of users whose noisy
        bucket equals their hash of ``x``.  It is a per-user sum, so supports
        computed on disjoint report batches add exactly.

        This is the ``O(N * 2^d)`` hot loop of the library; the scan itself
        is delegated to the selected kernel backend
        (:func:`repro.core.backends.resolve_backend` — the fused C scan
        when it built, else the numpy blocked scan or its thread-pool
        fan-out).  Every backend
        produces identical ``int64`` counts for any ``batch_size`` (``0``
        selects :attr:`decode_batch_size`);
        :meth:`support_counts_reference` keeps the original implementation
        as the conformance ground truth.
        """
        seeds = np.asarray(seeds, dtype=np.int64)
        noisy_buckets = np.asarray(noisy_buckets, dtype=np.int64)
        if seeds.shape != noisy_buckets.shape or seeds.ndim != 1:
            raise ProtocolConfigurationError(
                "seeds and noisy buckets must be 1-D arrays of the same length"
            )
        batch = int(batch_size) if batch_size else self.decode_batch_size
        if batch < 1:
            raise ProtocolConfigurationError(
                f"decode batch size must be >= 1, got {batch}"
            )
        backend = resolve_backend(self.kernel_backend)
        support = backend.support_counts(
            seeds, noisy_buckets, self.domain_size, self.num_buckets, batch
        )
        return support.astype(np.float64)

    def support_counts_reference(
        self, seeds: np.ndarray, noisy_buckets: np.ndarray, batch_size: int = 256
    ) -> np.ndarray:
        """Reference support counting: full-height hash matrix per domain batch.

        The pre-optimisation implementation, retained as the ground truth
        :meth:`support_counts` is proven against and the baseline the kernel
        benchmarks time the blocked path over.
        """
        seeds = np.asarray(seeds, dtype=np.int64)
        noisy_buckets = np.asarray(noisy_buckets, dtype=np.int64)
        if seeds.shape != noisy_buckets.shape or seeds.ndim != 1:
            raise ProtocolConfigurationError(
                "seeds and noisy buckets must be 1-D arrays of the same length"
            )
        support = np.zeros(self.domain_size, dtype=np.float64)
        for start in range(0, self.domain_size, batch_size):
            stop = min(start + batch_size, self.domain_size)
            candidates = np.arange(start, stop, dtype=np.int64)
            # hashes[i, j] = h_{seed_i}(candidate_j), by broadcasting.
            hashes = _hash(candidates[None, :], seeds[:, None], self.num_buckets)
            support[start:stop] = (hashes == noisy_buckets[:, None]).sum(axis=0)
        return support

    def estimate_from_support(
        self, support: np.ndarray, num_users: int
    ) -> np.ndarray:
        """De-bias accumulated support counts into frequency estimates.

        The standard OLH de-biasing ``(support/N - 1/g) / (p - 1/g)`` yields
        unbiased frequencies.
        """
        if num_users < 1:
            raise ProtocolConfigurationError("cannot aggregate zero reports")
        support = np.asarray(support, dtype=np.float64)
        p = self.encoder.keep_probability
        uniform = 1.0 / self.num_buckets
        return (support / num_users - uniform) / (p - uniform)

    def estimate_frequencies(
        self, seeds: np.ndarray, noisy_buckets: np.ndarray, batch_size: int = 0
    ) -> np.ndarray:
        """Estimate the frequency of every domain element in one pass."""
        support = self.support_counts(seeds, noisy_buckets, batch_size=batch_size)
        return self.estimate_from_support(support, np.asarray(seeds).shape[0])
