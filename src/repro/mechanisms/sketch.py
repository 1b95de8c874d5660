"""Hadamard Count-Mean Sketch (the Apple LDP frequency oracle).

Each user owns a value from a (large) domain.  The sketch uses ``g`` hash
functions, each mapping the domain onto ``w`` buckets (``w`` a power of two).
A user samples one hash function, hashes their value, samples one Hadamard
coefficient index of the width-``w`` one-hot bucket vector, and reports that
single +/-1 coefficient through randomized response together with the two
sampled indices.  The aggregator de-biases the reports into a ``g x w``
sketch in the Hadamard domain, inverts the transform per row, and estimates
the frequency of any element with the standard count-mean-sketch formula.

The paper uses this as the ``InpHTCMS`` baseline (Figure 10): the Hadamard
step there only buys communication, unlike ``InpHT`` where it also buys
accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..core import bitops
from ..core.exceptions import ProtocolConfigurationError
from ..core.hadamard import fwht_rows
from ..core.privacy import PrivacyBudget
from ..core.rng import RngLike, ensure_rng
from .randomized_response import SignRandomizedResponse

__all__ = ["HadamardCountMeanSketch"]

_MERSENNE_PRIME = (1 << 61) - 1


def _salted_hash(values: np.ndarray, salts: np.ndarray, width: int) -> np.ndarray:
    """``h_salt(value) -> [0, width)``, element-wise over broadcast arrays.

    Uses a splitmix64-style avalanche on the (value, salt) pair so that even
    small, sequential domains spread uniformly over the sketch width; a plain
    affine hash is too regular on ``0..2^d - 1`` inputs and would bias the
    count-mean collision correction.
    """
    values = np.asarray(values, dtype=np.uint64)
    salts = np.asarray(salts, dtype=np.uint64)
    with np.errstate(over="ignore"):
        mixed = values + salts * np.uint64(0x9E3779B97F4A7C15)
        mixed ^= mixed >> np.uint64(30)
        mixed *= np.uint64(0xBF58476D1CE4E5B9)
        mixed ^= mixed >> np.uint64(27)
        mixed *= np.uint64(0x94D049BB133111EB)
        mixed ^= mixed >> np.uint64(31)
    return (mixed % np.uint64(width)).astype(np.int64)


@dataclass(frozen=True)
class HadamardCountMeanSketch:
    """The HCMS frequency oracle.

    Attributes
    ----------
    domain_size:
        Size of the input domain (``2^d`` for binary data).
    budget:
        Per-user epsilon-LDP budget.
    num_hashes:
        Number of hash functions ``g`` (the paper's experiments use 5).
    width:
        Sketch width ``w`` (power of two; the paper uses 256).
    seed:
        Seed for the fixed, publicly-known hash family.
    """

    domain_size: int
    budget: PrivacyBudget
    num_hashes: int = 5
    width: int = 256
    seed: int = 0x5EED

    def __post_init__(self):
        if int(self.domain_size) < 2:
            raise ProtocolConfigurationError(
                f"domain size must be >= 2, got {self.domain_size}"
            )
        if int(self.num_hashes) < 1:
            raise ProtocolConfigurationError(
                f"need at least one hash function, got {self.num_hashes}"
            )
        width = int(self.width)
        if width < 2 or (width & (width - 1)) != 0:
            raise ProtocolConfigurationError(
                f"sketch width must be a power of two >= 2, got {width}"
            )
        object.__setattr__(self, "domain_size", int(self.domain_size))
        object.__setattr__(self, "num_hashes", int(self.num_hashes))
        object.__setattr__(self, "width", width)

    def _salts(self) -> np.ndarray:
        """Deterministic per-hash-function salts shared by clients and server."""
        return (
            np.arange(1, self.num_hashes + 1, dtype=np.uint64) * np.uint64(0xABCDEF01)
            + np.uint64(self.seed)
        )

    @property
    def mechanism(self) -> SignRandomizedResponse:
        """The full-budget sign-RR each user applies to their one coefficient."""
        return SignRandomizedResponse.from_budget(self.budget)

    # ------------------------------------------------------------------ #
    # Client side
    # ------------------------------------------------------------------ #
    def perturb(
        self, values: np.ndarray, rng: RngLike = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Produce reports ``(hash_index, coefficient_index, noisy_sign)``."""
        values = np.asarray(values, dtype=np.int64)
        return self.apply(values, *self.draw(values.shape[0], rng))

    def draw(
        self, size: int, rng: RngLike = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The randomness of :meth:`perturb` for ``size`` users, in its draw
        order: hash indices, coefficient indices, then the sign-RR flip
        uniforms.  None of it depends on the values."""
        generator = ensure_rng(rng)
        hash_indices = generator.integers(
            0, self.num_hashes, size=size, dtype=np.int64
        )
        coefficient_indices = generator.integers(
            0, self.width, size=size, dtype=np.int64
        )
        return hash_indices, coefficient_indices, self.mechanism.draw(size, generator)

    def apply(
        self,
        values: np.ndarray,
        hash_indices: np.ndarray,
        coefficient_indices: np.ndarray,
        uniforms: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The deterministic half of :meth:`perturb`: hash each value with
        its sampled hash function, take the sampled Hadamard coefficient of
        the one-hot bucket vector and flip it with the drawn uniforms.
        Returns ``(hash_index, coefficient_index, noisy_sign)``."""
        self.check_values(values)
        buckets = _salted_hash(values, self._salts()[hash_indices], self.width)
        # The Hadamard coefficient of a one-hot bucket vector is just the sign
        # (-1)^{<m, bucket>} (unnormalised transform).
        signs = (
            1.0 - 2.0 * bitops.parity(buckets & coefficient_indices)
        ).astype(np.float64)
        noisy = self.mechanism.apply(signs, uniforms)
        return hash_indices, coefficient_indices, noisy

    def check_values(self, values: np.ndarray) -> None:
        """Refuse a value outside the sketch's domain ``[0, domain_size)``."""
        values = np.asarray(values)
        if values.size and (values.min() < 0 or values.max() >= self.domain_size):
            raise ProtocolConfigurationError(
                f"values must lie in [0, {self.domain_size})"
            )

    # ------------------------------------------------------------------ #
    # Aggregator side
    # ------------------------------------------------------------------ #
    def sign_sums(
        self,
        hash_indices: np.ndarray,
        coefficient_indices: np.ndarray,
        noisy_signs: np.ndarray,
    ) -> np.ndarray:
        """Per-(hash, coefficient) sums of noisy signs — the mergeable state.

        Each entry is a sum of ``+/-1`` reports, so sums over disjoint report
        batches add exactly and shard-then-merge aggregation reproduces the
        single-pass sketch bit-for-bit.
        """
        hash_indices = np.asarray(hash_indices, dtype=np.int64)
        coefficient_indices = np.asarray(coefficient_indices, dtype=np.int64)
        noisy_signs = np.asarray(noisy_signs, dtype=np.float64)
        if not (
            hash_indices.shape == coefficient_indices.shape == noisy_signs.shape
        ):
            raise ProtocolConfigurationError("report arrays must share one shape")
        flat = hash_indices * self.width + coefficient_indices
        sums = np.bincount(
            flat, weights=noisy_signs, minlength=self.num_hashes * self.width
        )
        return sums.reshape(self.num_hashes, self.width)

    def sketch_from_sums(self, sign_sums: np.ndarray, num_users: int) -> np.ndarray:
        """De-bias accumulated sign sums into the ``g x w`` count-space sketch."""
        if num_users < 1:
            raise ProtocolConfigurationError("cannot aggregate zero reports")
        sign_sums = np.asarray(sign_sums, dtype=np.float64)
        # Each user's report is an unbiased estimate of g * w * (their
        # coefficient) once divided by the RR attenuation: the factors undo
        # the 1/g and 1/w sampling probabilities.
        scale = self.num_hashes * self.width / self.mechanism.attenuation
        sketch_hadamard = sign_sums * scale / num_users
        # Invert the (unnormalised) transform across all g rows in one
        # batched pass: counts[l, b] = (1/w) sum_m (-1)^{<m,b>} coeff.
        return fwht_rows(sketch_hadamard) / self.width

    def build_sketch(
        self,
        hash_indices: np.ndarray,
        coefficient_indices: np.ndarray,
        noisy_signs: np.ndarray,
    ) -> np.ndarray:
        """Assemble the de-biased ``g x w`` sketch of *counts* in data space."""
        sums = self.sign_sums(hash_indices, coefficient_indices, noisy_signs)
        return self.sketch_from_sums(sums, np.asarray(hash_indices).shape[0])

    def frequencies_from_sketch(self, sketch: np.ndarray) -> np.ndarray:
        """Estimate the frequency of every domain element from a sketch."""
        salts = self._salts()
        candidates = np.arange(self.domain_size, dtype=np.int64)
        hashes = _salted_hash(candidates[:, None], salts[None, :], self.width)
        per_hash = sketch[np.arange(self.num_hashes)[None, :], hashes]
        mean = per_hash.mean(axis=1)
        # Count-mean de-biasing for hash collisions: a random other element
        # collides with probability 1/w.
        w = self.width
        return (w / (w - 1.0)) * (mean - 1.0 / w)

    def estimate_frequencies(
        self,
        hash_indices: np.ndarray,
        coefficient_indices: np.ndarray,
        noisy_signs: np.ndarray,
    ) -> np.ndarray:
        """Estimate the frequency of every domain element from the reports."""
        sketch = self.build_sketch(hash_indices, coefficient_indices, noisy_signs)
        return self.frequencies_from_sketch(sketch)
