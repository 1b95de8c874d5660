"""Wall-clock speedup of the process executor over the serial driver.

The executor subsystem promises two things: identical estimates on every
backend (asserted here, not just in the test suite) and wall-clock speedup
once the per-shard work dominates scheduling overhead.  This benchmark runs
``run_streaming`` for each selected protocol with the serial reference and
the process backend at several worker counts, on the same seed,
batch size and shard count, and reports seconds + speedup per cell.

Protocol choice matters for the second promise.  ``InpOLH`` decodes each
report batch into per-element support counts — ``O(N * 2^d)`` aggregation
work, by far the heaviest stage in the library — so it parallelises almost
perfectly.  ``MargPS`` and ``InpHT`` encode/aggregate in milliseconds even
at ``N = 10^5``; they are included as the honest counterexample where pool
start-up and pickling swamp the work and the serial driver stays the right
choice.

Run with:  PYTHONPATH=src python benchmarks/bench_parallel_speedup.py
           (add --quick for a CI-sized run)
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from repro.core.privacy import PrivacyBudget
from repro.datasets import BinaryDataset
from repro.execution import make_executor
from repro.protocols.registry import make_protocol

LN3 = float(np.log(3.0))

#: (backend, workers) grid; serial is the baseline every cell is scored against.
CONFIGURATIONS = [
    ("serial", 1),
    ("process", 2),
    ("process", 4),
]

SHARDS = 8
SEED = 20180610


def _dataset(n: int, d: int, seed: int = 97) -> BinaryDataset:
    rng = np.random.default_rng(seed)
    records = (rng.random((n, d)) < 0.4).astype(np.int8)
    return BinaryDataset.from_records(records)


def _tables(estimator):
    return {beta: t.values for beta, t in estimator.query_all().items()}


def run_benchmark(users: int, dimension: int, protocols):
    """Time every (protocol, backend, workers) cell; returns result rows."""
    dataset = _dataset(users, dimension)
    warmup = _dataset(256, dimension, seed=3)
    batch_size = -(-users // SHARDS)
    rows = []
    for name in protocols:
        protocol = make_protocol(name, PrivacyBudget(LN3), 2)
        reference_tables = None
        serial_seconds = None
        for backend, workers in CONFIGURATIONS:
            executor = make_executor(backend, workers)
            try:
                # Warm the pool outside the timed region: production runs
                # reuse one executor across a whole sweep, so start-up cost
                # is amortised there too.
                protocol.run_streaming(
                    warmup, rng=np.random.default_rng(1), executor=executor
                )
                started = time.perf_counter()
                estimator = protocol.run_streaming(
                    dataset,
                    rng=np.random.default_rng(SEED),
                    batch_size=batch_size,
                    shards=SHARDS,
                    executor=executor,
                )
                elapsed = time.perf_counter() - started
            finally:
                executor.close()
            tables = _tables(estimator)
            if reference_tables is None:
                reference_tables = tables
                serial_seconds = elapsed
            else:
                for beta in reference_tables:
                    np.testing.assert_array_equal(
                        reference_tables[beta], tables[beta]
                    )
            rows.append(
                (name, backend, workers, elapsed, serial_seconds / elapsed)
            )
    return rows


def render(rows) -> str:
    header = (
        f"{'protocol':<9} {'backend':<8} {'workers':>7} "
        f"{'seconds':>9} {'speedup':>8}"
    )
    lines = [header, "-" * len(header)]
    for name, backend, workers, seconds, speedup in rows:
        lines.append(
            f"{name:<9} {backend:<8} {workers:>7} "
            f"{seconds:>9.3f} {speedup:>7.2f}x"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--users", type=int, default=150_000, help="population size N"
    )
    parser.add_argument(
        "--dimension", type=int, default=10, help="number of attributes d"
    )
    parser.add_argument(
        "--protocols",
        nargs="+",
        default=["InpOLH", "MargPS", "InpHT"],
        help="protocols to time (first should be aggregation-heavy)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run (N = 40k, d = 8, InpOLH only)",
    )
    arguments = parser.parse_args(argv)
    if arguments.quick:
        arguments.users, arguments.dimension = 40_000, 8
        arguments.protocols = ["InpOLH"]

    cores = os.cpu_count() or 1
    print(
        f"N={arguments.users} d={arguments.dimension} shards={SHARDS} "
        f"cores={cores}\n"
    )
    rows = run_benchmark(arguments.users, arguments.dimension, arguments.protocols)
    print(render(rows))
    print("\nestimates verified bit-for-bit identical across all backends")

    serial_seconds = {
        row[0]: row[3] for row in rows if row[1] == "serial"
    }
    best = max(
        (row for row in rows if row[1] == "process" and row[2] == 4),
        key=lambda row: row[4],
    )
    print(
        f"best 4-process speedup: {best[0]} at {best[4]:.2f}x "
        f"({serial_seconds[best[0]]:.2f}s -> {best[3]:.2f}s)"
    )
    if cores < 4:
        print(
            f"note: only {cores} core(s) visible — parallel speedup cannot "
            f"materialise on this machine; rerun on >= 4 cores",
            file=sys.stderr,
        )
        return 0
    if arguments.quick:
        # The smoke run is too small for the 2x gate: pool start-up is a
        # visible fraction of a sub-second workload.
        return 0
    if best[4] < 2.0:
        print(
            "FAIL: no protocol reached 2x speedup with 4 process workers",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
