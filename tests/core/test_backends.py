"""Kernel backends: conformance matrix, the machine's choice, fallback.

Every backend must produce *identical* integer support counts and
popcount/parity results, so which one the machine runs changes only
speed; a fallback from ``native`` says why once and never breaks an
aggregation. The conformance cases run each backend three ways: called
directly, called once per uneven slice of the users with the counts summed
(a group folded block by block), and entered from several threads at once.
"""

from __future__ import annotations

import functools
import logging
import os
import signal
import threading

import numpy as np
import pytest

from repro.core import backends as backends_module
from repro.core.backends import (
    _SEED_MIX,
    NativeBackend,
    NumpyBackend,
    native_clone,
    resolve_backend,
)
from repro.core.privacy import PrivacyBudget
from repro.mechanisms.local_hashing import OptimizedLocalHashing, _hash

from ..oracles import (
    parity_reference,
    popcount_reference,
    support_counts_reference,
)


#: The machine's native backend, or ``None`` where the C scan did not
#: build (no compiler); its tests skip there, and CI asserts it loaded.
NATIVE = (
    backends_module._BACKEND
    if isinstance(backends_module._BACKEND, NativeBackend)
    else None
)
needs_native = pytest.mark.skipif(
    NATIVE is None, reason="the native scan did not build on this host"
)


def _conformance_backends():
    """Every backend this host can run."""
    return [NumpyBackend()] + ([NATIVE] if NATIVE is not None else [])


def _user_slices(users):
    """One user, then the rest cut in two near its middle: uneven slices
    that cross a tile edge wherever the whole batch does."""
    cuts = sorted({0, min(1, users), users // 2, users})
    return [slice(start, stop) for start, stop in zip(cuts, cuts[1:])]


class _SplitCaller:
    """Calls a backend once per user slice and joins the answers: counts
    are summed, as the collector sums the blocks it folds a group in, and
    popcount/parity are concatenated."""

    def __init__(self, backend):
        self.backend = backend
        self.name = f"{backend.name}-split"

    def popcount(self, words):
        return np.concatenate(
            [
                self.backend.popcount(words[part])
                for part in _user_slices(len(words))
            ]
        )

    def parity(self, words):
        return np.concatenate(
            [
                self.backend.parity(words[part])
                for part in _user_slices(len(words))
            ]
        )

    def support_counts(self, seeds, noisy, *shape):
        return functools.reduce(
            np.add,
            [
                self.backend.support_counts(seeds[part], noisy[part], *shape)
                for part in _user_slices(len(seeds))
            ],
        )

    def support_counts_levels(self, levels, pairs, *shape):
        return functools.reduce(
            np.add,
            [
                self.backend.support_counts_levels(
                    levels[part], pairs[part], *shape
                )
                for part in _user_slices(len(levels))
            ],
        )


class _ThreadsCaller:
    """Enters one backend instance from several caller threads at once
    (ctypes drops the GIL inside the C scan): every thread must get the
    same answer, and the kernel must start no thread of its own."""

    callers = 2

    def __init__(self, backend):
        self.backend = backend
        self.name = f"{backend.name}-threads"

    def __getattr__(self, method):
        return functools.partial(self._call, getattr(self.backend, method))

    def _call(self, kernel, *args):
        gate = threading.Barrier(self.callers)
        answers = [None] * self.callers

        def run(index):
            gate.wait()
            try:
                answers[index] = kernel(*args)
            except BaseException as error:  # re-raised on the test's thread
                answers[index] = error

        before = threading.active_count()
        threads = [
            threading.Thread(target=run, args=(index,))
            for index in range(self.callers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert threading.active_count() == before
        assert not [
            thread
            for thread in threading.enumerate()
            if thread.name.startswith("repro-kernel")
        ]
        for answer in answers:
            if isinstance(answer, BaseException):
                raise answer
        for answer in answers[1:]:
            assert answer.dtype == answers[0].dtype
            np.testing.assert_array_equal(answer, answers[0])
        return answers[0]


def _conformance_callers():
    """Each backend called directly, over uneven user slices, and from
    several threads at once."""
    return [
        caller(backend)
        for caller in (lambda backend: backend, _SplitCaller, _ThreadsCaller)
        for backend in _conformance_backends()
    ]


@pytest.fixture(params=_conformance_callers(), ids=lambda b: f"{b.name}")
def backend(request):
    return request.param


class TestConformanceMatrix:
    def test_popcount_matches_reference(self, backend):
        rng = np.random.default_rng(5)
        words = rng.integers(0, 2**63, size=4097, dtype=np.int64).astype(
            np.uint64
        )
        np.testing.assert_array_equal(
            backend.popcount(words), popcount_reference(words)
        )

    def test_parity_matches_reference(self, backend):
        rng = np.random.default_rng(6)
        words = rng.integers(0, 2**63, size=4097, dtype=np.int64).astype(
            np.uint64
        )
        np.testing.assert_array_equal(
            backend.parity(words), parity_reference(words)
        )

    @pytest.mark.parametrize("num_buckets", [4, 5])
    def test_support_counts_match_reference(self, backend, num_buckets):
        """Exact-count equality on pow2 (mask fold) and non-pow2 (modulo)
        bucket counts; the reference is the pre-optimization full-height
        hash-matrix scan."""
        oracle = OptimizedLocalHashing(
            domain_size=64,
            budget=PrivacyBudget(np.log(3.0)),
            num_buckets=num_buckets,
        )
        rng = np.random.default_rng(20180610)
        users = 301
        seeds = rng.integers(0, 2**62, size=users, dtype=np.int64)
        noisy = rng.integers(0, num_buckets, size=users, dtype=np.int64)
        reference = support_counts_reference(oracle, seeds, noisy)
        observed = backend.support_counts(
            seeds, noisy, oracle.domain_size, oracle.num_buckets, 16
        )
        np.testing.assert_array_equal(observed.astype(np.float64), reference)

    def test_support_counts_batch_size_invisible(self, backend):
        oracle = OptimizedLocalHashing(
            domain_size=32, budget=PrivacyBudget(np.log(3.0))
        )
        rng = np.random.default_rng(9)
        seeds = rng.integers(0, 2**62, size=97, dtype=np.int64)
        noisy = rng.integers(0, oracle.num_buckets, size=97, dtype=np.int64)
        counts = [
            backend.support_counts(
                seeds, noisy, oracle.domain_size, oracle.num_buckets, batch
            )
            for batch in (1, 7, 32, 1024)
        ]
        for other in counts[1:]:
            np.testing.assert_array_equal(counts[0], other)

    @pytest.mark.parametrize("num_buckets", [4, 21])
    def test_support_counts_levels_concatenate_the_levels(
        self, backend, num_buckets
    ):
        """The all-levels entry point is the one-domain scan of each
        level's users, level after level, an empty middle level included."""
        rng = np.random.default_rng(22)
        users = 301
        levels = rng.choice([0, 2, 3], size=users)
        pairs = np.column_stack(
            (
                rng.integers(-(2**63), 2**63 - 1, size=users, dtype=np.int64),
                rng.integers(0, num_buckets, size=users, dtype=np.int64),
            )
        )
        domains = np.array([16, 64, 256, 40])
        observed = backend.support_counts_levels(
            levels, pairs, domains, num_buckets, 32
        )
        expected = [
            NumpyBackend().support_counts(
                pairs[levels == level, 0],
                pairs[levels == level, 1],
                int(domain),
                num_buckets,
                32,
            )
            for level, domain in enumerate(domains)
        ]
        assert observed.dtype == np.int64
        np.testing.assert_array_equal(observed, np.concatenate(expected))


class TestMachineBackend:
    def test_native_when_it_loaded_else_a_numpy_backend(self):
        expected = "native" if NATIVE is not None else "numpy"
        assert resolve_backend().name == expected
        assert resolve_backend() is resolve_backend()
        assert (native_clone() is None) == (NATIVE is None)

    def test_fallback_warning_fires_once(self, monkeypatch, caplog):
        monkeypatch.setattr(backends_module, "_BACKEND", NumpyBackend())
        monkeypatch.setattr(
            backends_module, "_FALLBACK_WARNING", "scan unavailable (bogus)"
        )
        with caplog.at_level(logging.WARNING, logger="repro.core.backends"):
            first = resolve_backend()
            second = resolve_backend()
        assert first is second and first.name == "numpy"
        assert native_clone() is None
        warnings = [r for r in caplog.records if "bogus" in r.message]
        assert len(warnings) == 1


#: (domain size, decode batch size) pairs of the block-edge matrix: one
#: domain block at three widths, then a 2048 domain in two blocks and in
#: 683 three-wide blocks.
EDGE_DOMAINS = [(2, 1024), (16, 1024), (1024, 1024), (2048, 1024), (2048, 3)]
EDGE_BUCKETS = [2, 4, 5, 21, 32]
#: The matrix shrinks the scan tile so that 3 * block + 7 users stay cheap
#: at every width; the tiling arithmetic does not depend on its value.
EDGE_TILE = 3 << 10


def _edge_users(tile, width):
    block = max(1, tile // width)
    return sorted({1, block - 1, block, block + 1, 3 * block + 7} - {0})


def _wrapping_seeds(count, rng):
    """Seeds near 2^62, so ``seed * _SEED_MIX`` wraps, with every third
    one solved so that the hoisted offset lies within 2048 of 2^64 and the
    ``offset + candidate`` add wraps too (any int64 can arrive off the wire)."""
    seeds = (2**62 - rng.integers(1, 2**20, size=count)).astype(np.uint64)
    inverse = pow(int(_SEED_MIX), -1, 2**64)
    for index in range(0, count, 3):
        offset = 2**64 - int(rng.integers(1, 2048))
        seeds[index] = (offset * inverse) % 2**64
    return seeds.view(np.int64)


@functools.lru_cache(maxsize=None)
def _edge_case(domain_size, users, num_buckets):
    """Deterministic reports and their reference counts, shared by every
    backend's run of the same case."""
    rng = np.random.default_rng([domain_size, users, num_buckets])
    seeds = _wrapping_seeds(users, rng)
    noisy = rng.integers(0, num_buckets, size=users, dtype=np.int64)
    oracle = OptimizedLocalHashing(
        domain_size=domain_size,
        budget=PrivacyBudget(np.log(3.0)),
        num_buckets=num_buckets,
    )
    return seeds, noisy, support_counts_reference(oracle, seeds, noisy)


class TestBlockEdges:
    """Exact counts at every tile boundary: users at 1, block - 1, block,
    block + 1 and 3 * block + 7 for each domain width, pow2 (mask) and
    non-pow2 (divide) bucket counts, and seeds whose mixing wraps."""

    @pytest.mark.parametrize("num_buckets", EDGE_BUCKETS)
    @pytest.mark.parametrize("domain_size,batch_size", EDGE_DOMAINS)
    def test_counts_match_reference_across_block_edges(
        self, backend, monkeypatch, domain_size, batch_size, num_buckets
    ):
        monkeypatch.setattr(backends_module, "_SCAN_TILE_ELEMENTS", EDGE_TILE)
        width = min(batch_size, domain_size)
        for users in _edge_users(EDGE_TILE, width):
            seeds, noisy, reference = _edge_case(domain_size, users, num_buckets)
            observed = backend.support_counts(
                seeds, noisy, domain_size, num_buckets, batch_size
            )
            assert observed.dtype == np.int64
            np.testing.assert_array_equal(
                observed, reference, err_msg=f"{users} users"
            )

    @pytest.mark.parametrize("num_buckets", [4, 21])
    @pytest.mark.parametrize("domain_size", [2, 16, 1024])
    def test_counts_match_reference_at_the_real_tile(
        self, backend, domain_size, num_buckets
    ):
        tile = backends_module._SCAN_TILE_ELEMENTS
        for users in _edge_users(tile, domain_size):
            seeds, noisy, reference = _edge_case(domain_size, users, num_buckets)
            np.testing.assert_array_equal(
                backend.support_counts(
                    seeds, noisy, domain_size, num_buckets, 1024
                ),
                reference,
                err_msg=f"{users} users",
            )

    def test_a_full_tile_of_matches_fits_the_column_counter(self, backend):
        """One-wide domain blocks give the tallest tile; every user matching
        candidate 0 drives that column's per-tile count to the tile height."""
        users = 2 * backends_module._SCAN_TILE_ELEMENTS + 1
        rng = np.random.default_rng(21)
        seeds = rng.integers(1, 2**62, size=users, dtype=np.int64)
        noisy = _hash(np.zeros(users, dtype=np.int64), seeds, 21)
        counts = backend.support_counts(seeds, noisy, 2, 21, 1)
        assert counts[0] == users
        oracle = OptimizedLocalHashing(
            domain_size=2, budget=PrivacyBudget(3.0), num_buckets=21
        )
        np.testing.assert_array_equal(
            counts, support_counts_reference(oracle, seeds, noisy)
        )


class TestFork:
    @needs_native
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_forked_native_child_uses_the_inherited_library(self):
        """A child forked after the parent counted, as the supervisor forks
        collectors, calls the library it inherited mapped and counts what
        the parent counts."""
        rng = np.random.default_rng(3)
        seeds = rng.integers(1, 2**62, size=8192, dtype=np.int64)
        noisy = rng.integers(0, 4, size=8192, dtype=np.int64)
        expected = NATIVE.support_counts(seeds, noisy, 256, 4, 1024)

        pid = os.fork()
        if pid == 0:  # the child leaves through os._exit, never into pytest
            status = 1
            try:
                signal.alarm(10)
                observed = NATIVE.support_counts(seeds, noisy, 256, 4, 1024)
                status = 0 if np.array_equal(observed, expected) else 2
            finally:
                os._exit(status)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status), (
            f"child killed by signal {os.WTERMSIG(status)}"
        )
        assert os.WEXITSTATUS(status) == 0
