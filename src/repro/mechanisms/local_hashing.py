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

import functools
from dataclasses import dataclass
from typing import Tuple

import math

import numpy as np

from ..core.backends import _SEED_MIX, _avalanche, fold_buckets, resolve_backend
from ..core.exceptions import ProtocolConfigurationError
from ..core.privacy import PrivacyBudget
from ..core.rng import RngLike, ensure_rng
from .direct_encoding import DirectEncoding

__all__ = ["OptimizedLocalHashing", "DEFAULT_DECODE_BATCH_SIZE", "SEED_BOUND"]

#: Hash seeds are drawn from ``[1, SEED_BOUND)``: 62 bits on the wire.
SEED_BOUND = 1 << 62

# Parameters of a simple multiply-shift universal hash family on 64-bit keys.
_MULTIPLIER_BITS = 61
_MERSENNE_PRIME = (1 << 61) - 1

#: The number of domain elements hashed per decode block, by every kernel
#: backend: the numpy scan's tile width and the native scan's outer loop.
#: It does not set the memory of the scan: the numpy kernel fills each tile
#: with as many users as fit its fixed L2-sized element budget at the
#: block's real width (``min(DEFAULT_DECODE_BATCH_SIZE, domain_size)``), so
#: a wide block only means fewer users per tile; the native kernel sweeps
#: every user over one block's counters, which stay in L1 at this width.
#: The counts are exact for any block width.
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
    """

    domain_size: int
    budget: PrivacyBudget
    num_buckets: int = 0

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
        object.__setattr__(self, "domain_size", int(self.domain_size))
        object.__setattr__(self, "num_buckets", buckets)

    @functools.cached_property
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
        values = np.asarray(values, dtype=np.int64)
        return self.apply(values, *self.draw(values.shape[0], rng))

    def draw(
        self, size: int, rng: RngLike = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The randomness of :meth:`perturb` for ``size`` users, in its draw
        order: hash seeds, then the GRR step's uniforms and offsets.  None
        of it depends on the values, so a caller can draw several batches'
        randomness first and :meth:`apply` it to their values at once."""
        generator = ensure_rng(rng)
        seeds = generator.integers(1, SEED_BOUND, size=size, dtype=np.int64)
        return (seeds, *self.encoder.draw(size, generator))

    def apply(
        self,
        values: np.ndarray,
        seeds: np.ndarray,
        uniforms: np.ndarray,
        offsets: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The deterministic half of :meth:`perturb`: hash each value with
        its seed and pass the bucket through GRR with the drawn uniforms
        and offsets.  Returns ``(hash_seeds, noisy_buckets)``."""
        self.check_values(values)
        buckets = _hash(values, seeds, self.num_buckets)
        return seeds, self.encoder.apply(buckets, uniforms, offsets)

    def check_values(self, values: np.ndarray) -> None:
        """Refuse a value outside the oracle's domain ``[0, domain_size)``."""
        values = np.asarray(values)
        if values.size and (values.min() < 0 or values.max() >= self.domain_size):
            raise ProtocolConfigurationError(
                f"values must lie in [0, {self.domain_size})"
            )

    # ------------------------------------------------------------------ #
    # Aggregator side
    # ------------------------------------------------------------------ #
    def support_counts(
        self, seeds: np.ndarray, noisy_buckets: np.ndarray
    ) -> np.ndarray:
        """Per-element support counts — OLH's mergeable aggregation state.

        The support count of element ``x`` is the number of users whose noisy
        bucket equals their hash of ``x``.  It is a per-user sum, so supports
        computed on disjoint report batches add exactly.

        This is the ``O(N * 2^d)`` hot loop of the library; the scan itself
        is delegated to this machine's kernel backend
        (:func:`repro.core.backends.resolve_backend` — the fused C scan
        when it built, else the numpy blocked scan) on the calling thread,
        in blocks of :data:`DEFAULT_DECODE_BATCH_SIZE` elements.  Every
        backend produces identical ``int64`` counts.
        """
        seeds = np.asarray(seeds, dtype=np.int64)
        noisy_buckets = np.asarray(noisy_buckets, dtype=np.int64)
        if seeds.shape != noisy_buckets.shape or seeds.ndim != 1:
            raise ProtocolConfigurationError(
                "seeds and noisy buckets must be 1-D arrays of the same length"
            )
        support = resolve_backend().support_counts(
            seeds,
            noisy_buckets,
            self.domain_size,
            self.num_buckets,
            DEFAULT_DECODE_BATCH_SIZE,
        )
        return support.astype(np.float64)

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
        self, seeds: np.ndarray, noisy_buckets: np.ndarray
    ) -> np.ndarray:
        """Estimate the frequency of every domain element in one pass."""
        support = self.support_counts(seeds, noisy_buckets)
        return self.estimate_from_support(support, np.asarray(seeds).shape[0])
