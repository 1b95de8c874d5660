"""Microbenchmarks: vectorised decode kernels vs their retained references.

The aggregator-side kernels are the scaling story of the paper — OLH
decoding is ``O(N * 2^d)`` (Appendix B.2), EM decoding is the slow baseline
(Section 4.4) and the Hadamard transform drives InpHT/MargHT — so each
optimised kernel here is timed against the pre-optimisation implementation
it still ships with (``popcount_reference``, ``fwht_reference``,
``support_counts_reference``, the retain-all-records EM decode), with the
outputs asserted identical before any number is reported.  A second section
times the end-to-end aggregator decode of the protocols those kernels sit
under, seeding the perf trajectory future PRs regress against.

Run with:  PYTHONPATH=src python benchmarks/bench_kernels.py [--smoke]

``scripts/run_benchmarks.py`` wraps this module to emit the machine-readable
``BENCH_kernels.json`` and to gate CI on kernel regressions.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

import numpy as np

from repro.core import bitops, hadamard
from repro.core.backends import resolve_backend
from repro.core.privacy import PrivacyBudget
from repro.datasets import BinaryDataset
from repro.mechanisms.local_hashing import OptimizedLocalHashing
from repro.protocols.registry import make_protocol

LN3 = float(np.log(3.0))

#: Benchmark sizes.  ``full`` matches the acceptance targets recorded in
#: BENCH_kernels.json (popcount at d=16 masks x N=1e6, fwht at n=2^14);
#: ``smoke`` is the CI-sized run used by the regression gate.
PROFILES = {
    "full": {
        "popcount_n": 1_000_000,
        "popcount_d": 16,
        "fwht_log2": 14,
        "fwht_rows_shape": (64, 1024),
        "olh_users": 20_000,
        "olh_d": 11,
        "em_users": 100_000,
        "em_d": 8,
        "proto_users": 40_000,
        "proto_d": 8,
        "repeats": 3,
    },
    "smoke": {
        "popcount_n": 200_000,
        "popcount_d": 16,
        "fwht_log2": 12,
        "fwht_rows_shape": (16, 256),
        "olh_users": 4_000,
        "olh_d": 9,
        "em_users": 20_000,
        "em_d": 6,
        "proto_users": 8_000,
        "proto_d": 7,
        "repeats": 2,
    },
}


def _best_of(function, repeats: int) -> float:
    """Minimum wall-clock seconds over ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - started)
    return best


def _entry(reference_seconds: float, fast_seconds: float, **params) -> dict:
    return {
        "reference_seconds": reference_seconds,
        "fast_seconds": fast_seconds,
        "speedup": reference_seconds / fast_seconds,
        "params": params,
    }


# --------------------------------------------------------------------- #
# Kernel microbenchmarks (old vs new, outputs asserted identical)
# --------------------------------------------------------------------- #
def bench_popcount(profile: dict) -> dict:
    rng = np.random.default_rng(0)
    masks = rng.integers(0, 1 << profile["popcount_d"], size=profile["popcount_n"])
    np.testing.assert_array_equal(
        bitops.popcount(masks), bitops.popcount_reference(masks)
    )
    repeats = profile["repeats"]
    return _entry(
        _best_of(lambda: bitops.popcount_reference(masks), repeats),
        _best_of(lambda: bitops.popcount(masks), repeats),
        n=profile["popcount_n"],
        d=profile["popcount_d"],
        backend="bitwise_count" if bitops.HAS_BITWISE_COUNT else "swar",
    )


def bench_parity(profile: dict) -> dict:
    rng = np.random.default_rng(1)
    masks = rng.integers(0, 1 << profile["popcount_d"], size=profile["popcount_n"])
    np.testing.assert_array_equal(
        bitops.parity(masks), bitops.parity_reference(masks)
    )
    repeats = profile["repeats"]
    return _entry(
        _best_of(lambda: bitops.parity_reference(masks), repeats),
        _best_of(lambda: bitops.parity(masks), repeats),
        n=profile["popcount_n"],
        d=profile["popcount_d"],
    )


def bench_fwht(profile: dict) -> dict:
    rng = np.random.default_rng(2)
    vector = rng.normal(size=1 << profile["fwht_log2"])
    np.testing.assert_array_equal(
        hadamard.fwht(vector), hadamard.fwht_reference(vector)
    )
    repeats = profile["repeats"]
    return _entry(
        _best_of(lambda: hadamard.fwht_reference(vector), repeats),
        _best_of(lambda: hadamard.fwht(vector), repeats),
        n=1 << profile["fwht_log2"],
    )


def bench_fwht_rows(profile: dict) -> dict:
    rng = np.random.default_rng(3)
    matrix = rng.normal(size=profile["fwht_rows_shape"])
    np.testing.assert_array_equal(
        hadamard.fwht_rows(matrix),
        np.stack([hadamard.fwht_reference(row) for row in matrix]),
    )
    repeats = profile["repeats"]
    return _entry(
        _best_of(
            lambda: np.stack([hadamard.fwht_reference(row) for row in matrix]),
            repeats,
        ),
        _best_of(lambda: hadamard.fwht_rows(matrix), repeats),
        rows=profile["fwht_rows_shape"][0],
        n=profile["fwht_rows_shape"][1],
    )


def bench_olh_support(profile: dict, epsilon: float = LN3) -> dict:
    """Support counting at the oracle's optimal ``g``: 4 (a bit-mask fold)
    at ``eps = ln 3``, 21 (the divide fold) at ``eps = 3``, the
    heavy-hitter oracle's budget."""
    rng = np.random.default_rng(4)
    oracle = OptimizedLocalHashing(
        domain_size=1 << profile["olh_d"], budget=PrivacyBudget(epsilon)
    )
    values = rng.integers(0, oracle.domain_size, size=profile["olh_users"])
    seeds, noisy = oracle.perturb(values, rng=rng)
    np.testing.assert_array_equal(
        oracle.support_counts(seeds, noisy),
        oracle.support_counts_reference(seeds, noisy),
    )
    repeats = profile["repeats"]
    return _entry(
        _best_of(lambda: oracle.support_counts_reference(seeds, noisy), repeats),
        _best_of(lambda: oracle.support_counts(seeds, noisy), repeats),
        users=profile["olh_users"],
        d=profile["olh_d"],
        num_buckets=oracle.num_buckets,
        decode_batch_size=oracle.decode_batch_size,
        kernel_backend=resolve_backend().name,
    )


def _em_reference_decode(noisy_records, mask, keep_probability, threshold, limit):
    """The retain-all-records EM decode this library shipped before the
    sufficient-statistic accumulator: rebuild the observed pattern histogram
    by scanning all N noisy rows, rebuild the likelihood matrix, iterate."""
    positions = bitops.bit_positions(mask)
    k = len(positions)
    cells = 1 << k
    observed = np.zeros(noisy_records.shape[0], dtype=np.int64)
    for bit, position in enumerate(positions):
        observed |= noisy_records[:, position].astype(np.int64) << bit
    pattern_counts = np.bincount(observed, minlength=cells).astype(np.float64)
    pattern_fractions = pattern_counts / pattern_counts.sum()
    hamming = bitops.popcount_reference(
        np.arange(cells)[:, None] ^ np.arange(cells)[None, :]
    )
    likelihood = (keep_probability ** (k - hamming)) * (
        (1.0 - keep_probability) ** hamming
    )
    prior = np.full(cells, 1.0 / cells)
    for _ in range(limit):
        joint = likelihood * prior[None, :]
        denominator = joint.sum(axis=1, keepdims=True)
        denominator[denominator == 0] = 1.0
        updated = pattern_fractions @ (joint / denominator)
        change = float(np.abs(updated - prior).max())
        prior = updated
        if change < threshold:
            break
    return prior


def bench_em_decode(profile: dict) -> dict:
    rng = np.random.default_rng(5)
    users, d = profile["em_users"], profile["em_d"]
    records = (rng.random((users, d)) < (rng.random(d) * 0.6 + 0.2)).astype(np.int8)
    dataset = BinaryDataset.from_records(records)
    protocol = make_protocol("InpEM", PrivacyBudget(2.0), 2)
    reports = protocol.encode_batch(dataset, rng=np.random.default_rng(6))
    noisy = reports.noisy_records
    keep = protocol.per_attribute_mechanism(d).keep_probability
    estimator = (
        protocol.accumulator(dataset.domain).update(reports).finalize()
    )
    marginals = list(estimator.workload.marginals(2))
    for beta in marginals:
        np.testing.assert_array_equal(
            estimator.query_with_diagnostics(beta).table.values,
            _em_reference_decode(
                noisy, beta, keep, protocol.convergence_threshold, 10000
            ),
        )

    def reference():
        for beta in marginals:
            _em_reference_decode(
                noisy, beta, keep, protocol.convergence_threshold, 10000
            )

    def fast():
        fresh = protocol.accumulator(dataset.domain).update(reports).finalize()
        for beta in marginals:
            fresh.query_with_diagnostics(beta)

    repeats = profile["repeats"]
    entry = _entry(
        _best_of(reference, repeats),
        _best_of(fast, repeats),
        users=users,
        d=d,
        marginals=len(marginals),
    )
    entry["params"]["state_bytes_reference"] = int(noisy.nbytes)
    entry["params"]["state_bytes_fast"] = int(
        estimator.pattern_counts.nbytes
    )
    return entry


# --------------------------------------------------------------------- #
# End-to-end protocol decode timings (perf trajectory, no reference pair)
# --------------------------------------------------------------------- #
def bench_protocol_decodes(profile: dict) -> dict:
    rng = np.random.default_rng(7)
    users, d = profile["proto_users"], profile["proto_d"]
    records = (rng.random((users, d)) < (rng.random(d) * 0.6 + 0.2)).astype(np.int8)
    dataset = BinaryDataset.from_records(records)
    options = {"InpHTCMS": {"num_hashes": 5, "width": 256}}
    repeats = profile["repeats"]
    timings = {}
    for name in ("InpOLH", "InpHTCMS", "MargHT", "InpEM"):
        protocol = make_protocol(
            name, PrivacyBudget(LN3), 2, **options.get(name, {})
        )
        reports = protocol.encode_batch(dataset, rng=np.random.default_rng(8))

        def decode():
            estimator = (
                protocol.accumulator(dataset.domain).update(reports).finalize()
            )
            estimator.query_all()

        timings[name] = {
            "decode_seconds": _best_of(decode, repeats),
            "params": {"users": users, "d": d},
        }
    return timings


KERNEL_BENCHMARKS = {
    "popcount": bench_popcount,
    "parity": bench_parity,
    "fwht": bench_fwht,
    "fwht_rows": bench_fwht_rows,
    "olh_support": bench_olh_support,
    "olh_support_eps3": functools.partial(bench_olh_support, epsilon=3.0),
    "em_decode": bench_em_decode,
}


def run_profile(profile_name: str) -> dict:
    """Run every kernel + protocol benchmark for one profile."""
    profile = PROFILES[profile_name]
    kernels = {
        name: benchmark(profile) for name, benchmark in KERNEL_BENCHMARKS.items()
    }
    return {
        "params": dict(profile),
        "kernels": kernels,
        "protocol_decode": bench_protocol_decodes(profile),
    }


def render(result: dict) -> str:
    header = f"{'kernel':<16} {'reference':>11} {'fast':>11} {'speedup':>8}"
    lines = [header, "-" * len(header)]
    for name, entry in result["kernels"].items():
        lines.append(
            f"{name:<16} {entry['reference_seconds'] * 1e3:>9.2f}ms "
            f"{entry['fast_seconds'] * 1e3:>9.2f}ms "
            f"{entry['speedup']:>7.1f}x"
        )
    lines.append("")
    lines.append(f"{'protocol decode':<20} {'seconds':>9}")
    lines.append("-" * 30)
    for name, entry in result["protocol_decode"].items():
        lines.append(f"{name:<20} {entry['decode_seconds']:>9.3f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized run (smaller inputs)"
    )
    arguments = parser.parse_args(argv)
    profile_name = "smoke" if arguments.smoke else "full"
    print(f"profile: {profile_name}")
    result = run_profile(profile_name)
    print(render(result))
    print("\nkernel outputs verified identical to the reference implementations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
