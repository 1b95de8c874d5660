"""Kernel-backend registry: conformance matrix, selection order, fallback.

Backend choice is a pure performance knob — every backend must produce
*identical* integer support counts and popcount/parity results, and a bad
choice (an unknown name) must degrade to a working backend with a logged
warning, never break an aggregation.
"""

from __future__ import annotations

import functools
import logging
import os
import signal

import numpy as np
import pytest

from repro.core import backends as backends_module
from repro.core import bitops
from repro.core.backends import (
    _SEED_MIX,
    BACKEND_ENV_VAR,
    NativeBackend,
    NumpyBackend,
    ThreadedBackend,
    get_backend,
    registered_backends,
    resolve_backend,
    set_default_backend,
    use_backend,
)
from repro.core.exceptions import ProtocolConfigurationError
from repro.core.privacy import PrivacyBudget
from repro.mechanisms.local_hashing import OptimizedLocalHashing, _hash


#: The registered native backend, or ``None`` where the C scan did not
#: build (no compiler); its tests skip there, and CI asserts it loaded.
NATIVE = backends_module._BACKENDS.get("native")
needs_native = pytest.mark.skipif(
    NATIVE is None, reason="the native scan did not build on this host"
)


def _conformance_backends():
    """Every backend, with the fanned-out ones also forced onto their
    thread pool (instance-level threshold override) so small test inputs
    exercise the fan-out path, not just the small-input passthrough."""
    backends = [NumpyBackend(), ThreadedBackend(), _pooled_backend()]
    if NATIVE is not None:
        backends += [NATIVE, _pooled_backend(native=True)]
    return backends


def _pooled_backend(
    max_workers: int = 3, native: bool = False
) -> ThreadedBackend:
    if native:
        pooled = NativeBackend(NATIVE._native_scan, max_workers=max_workers)
    else:
        pooled = ThreadedBackend(max_workers=max_workers)
    pooled.min_work_elements = 1  # force the pool even for tiny inputs
    return pooled


@pytest.fixture(params=_conformance_backends(), ids=lambda b: f"{b.name}")
def backend(request):
    return request.param


@pytest.fixture(autouse=True)
def _clean_selection_state(monkeypatch):
    """Isolate each test from ambient env/default backend selection."""
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    set_default_backend(None)
    yield
    set_default_backend(None)


class TestConformanceMatrix:
    def test_popcount_matches_reference(self, backend):
        rng = np.random.default_rng(5)
        words = rng.integers(0, 2**63, size=4097, dtype=np.int64).astype(
            np.uint64
        )
        np.testing.assert_array_equal(
            backend.popcount(words), bitops.popcount_reference(words)
        )

    def test_parity_matches_reference(self, backend):
        rng = np.random.default_rng(6)
        words = rng.integers(0, 2**63, size=4097, dtype=np.int64).astype(
            np.uint64
        )
        np.testing.assert_array_equal(
            backend.parity(words), bitops.parity_reference(words)
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
        reference = oracle.support_counts_reference(seeds, noisy)
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


class TestSelectionOrder:
    def test_registry_contents(self):
        expected = ("numpy", "threaded") if NATIVE is None else (
            "native", "numpy", "threaded"
        )
        assert registered_backends() == expected

    def test_auto_prefers_native_when_it_loaded(self):
        expected = "native" if NATIVE is not None else (
            "threaded" if (os.cpu_count() or 1) > 1 else "numpy"
        )
        assert resolve_backend().name == expected
        assert resolve_backend("auto").name == expected

    def test_explicit_name_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "threaded")
        assert resolve_backend("numpy").name == "numpy"

    def test_env_wins_over_default(self, monkeypatch):
        set_default_backend("threaded")
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert resolve_backend().name == "numpy"

    def test_default_wins_over_auto(self):
        set_default_backend("numpy")
        assert resolve_backend().name == "numpy"

    def test_auto_is_a_valid_name_at_every_level(self, monkeypatch):
        auto = resolve_backend("auto").name
        assert auto in ("native", "numpy", "threaded")
        monkeypatch.setenv(BACKEND_ENV_VAR, "auto")
        assert resolve_backend().name == auto

    def test_use_backend_restores_previous_default(self):
        set_default_backend("numpy")
        with use_backend("threaded") as backend:
            assert backend.name == "threaded"
            assert resolve_backend().name == "threaded"
        assert resolve_backend().name == "numpy"

    def test_set_default_backend_rejects_unknown_names(self):
        with pytest.raises(ProtocolConfigurationError, match="unknown"):
            set_default_backend("cuda")

    def test_get_backend_rejects_unknown_names(self):
        with pytest.raises(ProtocolConfigurationError, match="unknown"):
            get_backend("cuda")


class TestGracefulFallback:
    def test_unknown_env_name_warns_and_falls_back(self, monkeypatch, caplog):
        monkeypatch.setattr(backends_module, "_WARNED", set())
        monkeypatch.setenv(BACKEND_ENV_VAR, "definitely-not-a-backend")
        with caplog.at_level(logging.WARNING, logger="repro.core.backends"):
            backend = resolve_backend()
        assert backend.name in ("native", "numpy", "threaded")
        assert any(
            "definitely-not-a-backend" in record.message
            for record in caplog.records
        )

    def test_retired_numba_name_in_env_is_unknown(self, monkeypatch, caplog):
        """The numba backend is gone: ``$REPRO_KERNEL_BACKEND=numba`` takes
        the unknown-name path, warns once and falls back."""
        monkeypatch.setattr(backends_module, "_WARNED", set())
        monkeypatch.setenv(BACKEND_ENV_VAR, "numba")
        with caplog.at_level(logging.WARNING, logger="repro.core.backends"):
            first = resolve_backend()
            second = resolve_backend()
        assert first.name in ("native", "numpy", "threaded")
        assert second is first
        warnings = [r for r in caplog.records if "'numba'" in r.message]
        assert len(warnings) == 1
        assert "unknown kernel backend" in warnings[0].message
        with pytest.raises(ProtocolConfigurationError, match="unknown"):
            get_backend("numba")

    def test_retired_numba_name_in_spec_falls_back(self, monkeypatch, caplog):
        """A protocol spec naming ``numba`` still aggregates, with the same
        counts as the default backend."""
        monkeypatch.setattr(backends_module, "_WARNED", set())
        budget = PrivacyBudget(np.log(3.0))
        pinned = OptimizedLocalHashing(
            domain_size=64, budget=budget, kernel_backend="numba"
        )
        default = OptimizedLocalHashing(domain_size=64, budget=budget)
        rng = np.random.default_rng(14)
        seeds, noisy = pinned.perturb(rng.integers(0, 64, size=500), rng=rng)
        with caplog.at_level(logging.WARNING, logger="repro.core.backends"):
            counts = pinned.support_counts(seeds, noisy)
        np.testing.assert_array_equal(
            counts, default.support_counts(seeds, noisy)
        )
        assert any(
            "unknown kernel backend 'numba' (requested)" in record.message
            for record in caplog.records
        )

    def test_fallback_warning_fires_once_per_name(self, monkeypatch, caplog):
        monkeypatch.setattr(backends_module, "_WARNED", set())
        monkeypatch.setenv(BACKEND_ENV_VAR, "bogus")
        with caplog.at_level(logging.WARNING, logger="repro.core.backends"):
            resolve_backend()
            resolve_backend()
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
    return seeds, noisy, oracle.support_counts_reference(seeds, noisy)


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
            counts, oracle.support_counts_reference(seeds, noisy)
        )


class TestFork:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_forked_child_does_not_wait_on_the_inherited_pool(self):
        """A child forked after the pool started inherits the executor but
        not its threads; it must build its own pool instead of hanging."""
        self._assert_forked_child_counts(_pooled_backend(max_workers=2))

    @needs_native
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_forked_native_child_uses_the_inherited_library(self):
        """The same after the native pool started: the child also calls
        the library it inherited mapped, without loading it again."""
        self._assert_forked_child_counts(
            _pooled_backend(max_workers=2, native=True)
        )

    @staticmethod
    def _assert_forked_child_counts(pooled):
        rng = np.random.default_rng(3)
        seeds = rng.integers(1, 2**62, size=400, dtype=np.int64)
        noisy = rng.integers(0, 4, size=400, dtype=np.int64)
        expected = pooled.support_counts(seeds, noisy, 256, 4, 1024)
        pid = os.fork()
        if pid == 0:  # the child leaves through os._exit, never into pytest
            status = 1
            try:
                signal.alarm(10)
                observed = pooled.support_counts(seeds, noisy, 256, 4, 1024)
                status = 0 if np.array_equal(observed, expected) else 2
            finally:
                os._exit(status)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status), (
            f"child killed by signal {os.WTERMSIG(status)}: it hung on the "
            f"inherited thread pool"
        )
        assert os.WEXITSTATUS(status) == 0
