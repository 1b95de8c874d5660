"""Kernel-backend registry: conformance matrix, selection order, fallback.

Backend choice is a pure performance knob — every backend must produce
*identical* integer support counts and popcount/parity results, and a bad
choice (unknown name, missing optional dependency) must degrade to a
working backend with a logged warning, never break an aggregation.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.core import bitops
from repro.core.backends import (
    BACKEND_ENV_VAR,
    HAS_NUMBA,
    NumbaBackend,
    NumpyBackend,
    ThreadedBackend,
    available_backends,
    get_backend,
    registered_backends,
    resolve_backend,
    set_default_backend,
    use_backend,
)
from repro.core.exceptions import ProtocolConfigurationError
from repro.core.privacy import PrivacyBudget
from repro.mechanisms.local_hashing import OptimizedLocalHashing


def _conformance_backends():
    """Every available backend, with the threaded one also forced onto its
    thread pool (instance-level threshold override) so small test inputs
    exercise the fan-out path, not just the small-input passthrough."""
    backends = [NumpyBackend(), ThreadedBackend()]
    pooled = ThreadedBackend(max_workers=3)
    pooled.min_work_elements = 1  # force the pool even for tiny inputs
    backends.append(pooled)
    if HAS_NUMBA:  # pragma: no cover - optional-deps CI job only
        backends.append(NumbaBackend())
    return backends


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
        assert registered_backends() == ("numba", "numpy", "threaded")
        assert "numpy" in available_backends()
        assert "threaded" in available_backends()

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
        assert auto in ("numpy", "threaded")
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
        from repro.core import backends as module

        monkeypatch.setattr(module, "_WARNED", set())
        monkeypatch.setenv(BACKEND_ENV_VAR, "definitely-not-a-backend")
        with caplog.at_level(logging.WARNING, logger="repro.core.backends"):
            backend = resolve_backend()
        assert backend.name in ("numpy", "threaded")
        assert any(
            "definitely-not-a-backend" in record.message
            for record in caplog.records
        )

    @pytest.mark.skipif(HAS_NUMBA, reason="numba installed: no fallback")
    def test_missing_numba_warns_and_falls_back(self, monkeypatch, caplog):
        from repro.core import backends as module

        monkeypatch.setattr(module, "_WARNED", set())
        with caplog.at_level(logging.WARNING, logger="repro.core.backends"):
            backend = resolve_backend("numba")
        assert backend.name in ("numpy", "threaded")
        assert any("not available" in record.message for record in caplog.records)

    @pytest.mark.skipif(HAS_NUMBA, reason="numba installed: no fallback")
    def test_missing_numba_is_unavailable_not_unknown(self):
        assert "numba" in registered_backends()
        assert "numba" not in available_backends()
        with pytest.raises(ProtocolConfigurationError, match="not available"):
            get_backend("numba")

    def test_fallback_warning_fires_once_per_name(self, monkeypatch, caplog):
        from repro.core import backends as module

        monkeypatch.setattr(module, "_WARNED", set())
        monkeypatch.setenv(BACKEND_ENV_VAR, "bogus")
        with caplog.at_level(logging.WARNING, logger="repro.core.backends"):
            resolve_backend()
            resolve_backend()
        warnings = [r for r in caplog.records if "bogus" in r.message]
        assert len(warnings) == 1
