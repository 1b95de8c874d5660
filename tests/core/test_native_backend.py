"""The native (compiled) OLH support-count scan: conformance, fallback and
cache safety.

``native`` must count exactly what the numpy scan and the retained
reference count, for every bucket count and block shape, threaded or not;
when it cannot be built it must degrade to the numpy kernels with one
warning and bit-for-bit identical estimates; and its on-disk cache must
survive truncation, concurrent first builds and hostile permissions.
"""

from __future__ import annotations

import logging
import os
import signal
import subprocess

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import backends as backends_module
from repro.core.backends import (
    BACKEND_ENV_VAR,
    NativeBackend,
    NumpyBackend,
    resolve_backend,
    set_default_backend,
)
from repro.core.privacy import PrivacyBudget
from repro.datasets import BinaryDataset
from repro.heavyhitters import HeavyHitters
from repro.mechanisms.local_hashing import OptimizedLocalHashing, _hash
from repro.observability import get_registry, metrics_enabled, set_enabled
from repro.observability.tracing import trace
from repro.protocols.inp_olh import InpOLH

NATIVE = backends_module._BACKENDS.get("native")
pytestmark = pytest.mark.skipif(
    NATIVE is None, reason="the native scan did not build on this host"
)

#: Bucket counts: the mask fold at 2, 4 and 256; the divisibility test at
#: odd g, at g = 21 (the heavy-hitter oracle's) and above 2^31.
BUCKETS = [2, 3, 4, 5, 7, 21, 256, (1 << 33) + 6]


def _pooled_native(max_workers: int = 3) -> NativeBackend:
    pooled = NativeBackend(NATIVE._native_scan, max_workers=max_workers)
    pooled.min_work_elements = 1  # force the pool even for tiny inputs
    return pooled


@pytest.fixture(autouse=True)
def _clean_selection_state(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    set_default_backend(None)
    yield
    set_default_backend(None)


@pytest.fixture
def cache_home(tmp_path, monkeypatch):
    """An empty ``$XDG_CACHE_HOME``: the next load builds from scratch."""
    home = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home


def _library(cache_home):
    (library,) = (cache_home / "repro").glob("olh_scan-*.so")
    return library


def _reports(seed, users, num_buckets):
    rng = np.random.default_rng(seed)
    seeds = rng.integers(-(2**63), 2**63 - 1, size=users, dtype=np.int64)
    noisy = rng.integers(0, min(num_buckets, 2**62), size=users, dtype=np.int64)
    return seeds, noisy


class TestConformance:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        num_buckets=st.sampled_from(BUCKETS),
        domain_size=st.integers(2, 300),
        batch_size=st.sampled_from([1, 7, 64, 1024]),
        users=st.sampled_from([0, 1, 3, 37, 129]),
        pooled=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_counts_equal_reference_and_numpy(
        self, num_buckets, domain_size, batch_size, users, pooled, seed
    ):
        """Against the reference and the numpy scan, for domains that are
        not multiples of the block width, odd and empty user counts, and
        the threaded fan-out forced on."""
        backend = _pooled_native() if pooled else NATIVE
        seeds, noisy = _reports(seed, users, num_buckets)
        oracle = OptimizedLocalHashing(
            domain_size=domain_size,
            budget=PrivacyBudget(np.log(3.0)),
            num_buckets=num_buckets,
        )
        observed = backend.support_counts(
            seeds, noisy, domain_size, num_buckets, batch_size
        )
        assert observed.dtype == np.int64
        np.testing.assert_array_equal(
            observed,
            NumpyBackend().support_counts(
                seeds, noisy, domain_size, num_buckets, batch_size
            ),
        )
        np.testing.assert_array_equal(
            observed, oracle.support_counts_reference(seeds, noisy)
        )

    @settings(max_examples=80, deadline=None)
    @given(
        num_buckets=st.sampled_from(BUCKETS),
        domain_size=st.integers(2, 200),
        value=st.integers(0, 199),
        seed=st.integers(-(2**63), 2**63 - 1),
    )
    def test_one_users_row_is_where_the_client_hash_hits(
        self, num_buckets, domain_size, value, seed
    ):
        """One user reporting the client-side ``_hash`` of their value
        supports exactly the elements that hash to the same bucket."""
        value %= domain_size
        seeds = np.array([seed], dtype=np.int64)
        bucket = _hash(np.array([value]), seeds, num_buckets)
        row = NATIVE.support_counts(seeds, bucket, domain_size, num_buckets, 64)
        hashes = _hash(
            np.arange(domain_size), np.repeat(seeds, domain_size), num_buckets
        )
        np.testing.assert_array_equal(row, (hashes == bucket[0]).astype(np.int64))
        assert row[value] == 1

    @pytest.mark.parametrize("num_buckets", [4, 21])
    def test_out_of_range_buckets_never_match(self, num_buckets):
        """Noisy buckets outside ``[0, g)`` (any int64 can arrive off the
        wire) support nothing, exactly as in the numpy scan."""
        seeds, _ = _reports(3, 50, num_buckets)
        noisy = np.array([-1, num_buckets, 2**62, -(2**63)] * 12 + [0, 1])
        observed = NATIVE.support_counts(seeds, noisy, 100, num_buckets, 16)
        np.testing.assert_array_equal(
            observed,
            NumpyBackend().support_counts(seeds, noisy, 100, num_buckets, 16),
        )
        np.testing.assert_array_equal(
            NATIVE.support_counts(seeds[:48], noisy[:48], 100, num_buckets, 16),
            np.zeros(100, dtype=np.int64),
        )


    def test_malformed_operands_are_refused_before_the_c_call(self):
        """A zero block width would never advance the C loop, and unequal
        arrays would read past the shorter one."""
        offsets = np.zeros(4, dtype=np.uint64)
        with pytest.raises(ValueError, match="batch size"):
            NATIVE._scan(offsets, offsets, 16, 4, 0)
        with pytest.raises(ValueError, match="equal 1-D"):
            NATIVE._scan(offsets, offsets[:3], 16, 4, 8)


    @pytest.mark.parametrize("num_buckets", [3, 5, 6, 21, (1 << 33) + 6])
    def test_hashes_below_the_target_never_match(self, num_buckets):
        """Seeds solved so that the avalanched word ``h`` is tiny: with
        ``h < t``, ``h - t`` wraps and can be divisible by ``g`` although
        ``h mod g != t``.  Random seeds reach this with odds near
        ``g / 2^64``."""
        g = num_buckets
        words = sorted({0, 1, 2, g - 1, g, 2 * g + 1})
        targets = sorted({0, 1, g - 1, 2**64 % g, (2**64 + 1) % g})
        pairs = [(word, target) for word in words for target in targets]
        seeds = np.array(
            [_seed_hashing_candidate_zero_to(word) for word, _ in pairs],
            dtype=np.uint64,
        ).view(np.int64)
        noisy = np.array([target for _, target in pairs], dtype=np.int64)
        np.testing.assert_array_equal(  # the solved seeds hit their words
            _hash(np.zeros(len(pairs), dtype=np.int64), seeds, 2**63),
            [word for word, _ in pairs],
        )
        observed = NATIVE.support_counts(seeds, noisy, 2, g, 8)
        np.testing.assert_array_equal(
            observed, NumpyBackend().support_counts(seeds, noisy, 2, g, 8)
        )
        assert observed[0] == sum(word % g == target for word, target in pairs)


def _seed_hashing_candidate_zero_to(word: int) -> int:
    """The seed whose avalanched candidate 0 is ``word``: splitmix64's
    finaliser is a bijection, so invert it, then solve
    ``seed * _SEED_MIX = mixed`` modulo 2^64."""
    mask = 2**64 - 1

    def unshift(value, shift):
        result = value
        for _ in range(64 // shift):
            result = value ^ (result >> shift)
        return result

    mixed = unshift(word, 31)
    mixed = (mixed * pow(0x94D049BB133111EB, -1, 2**64)) & mask
    mixed = unshift(mixed, 27)
    mixed = (mixed * pow(0xBF58476D1CE4E5B9, -1, 2**64)) & mask
    mixed = unshift(mixed, 30)
    return (mixed * pow(0x9E3779B97F4A7C15, -1, 2**64)) & mask


class TestObservability:
    @pytest.fixture(autouse=True)
    def _metrics_on(self):
        previous = metrics_enabled()
        set_enabled(True)
        yield
        set_enabled(previous)

    def test_span_and_dispatch_counter_name_native(self):
        snapshot = get_registry().snapshot()
        before = snapshot.value("repro_kernel_dispatch_total", {"backend": "native"})
        oracle = OptimizedLocalHashing(
            domain_size=64, budget=PrivacyBudget(np.log(3.0))
        )
        seeds, noisy = _reports(4, 20, oracle.num_buckets)
        oracle.support_counts(seeds, noisy)
        after = get_registry().snapshot().value(
            "repro_kernel_dispatch_total", {"backend": "native"}
        )
        assert after == (before or 0) + 1
        span = trace.recent("kernel.support_counts")[-1]
        assert span["backend"] == "native"
        assert span["users"] == 20


def _olh_and_hh_estimates():
    """InpOLH marginals and HH level distributions under the default
    (automatic) backend."""
    rng = np.random.default_rng(31)
    records = (rng.random((3000, 3)) < [0.2, 0.5, 0.7]).astype(np.int8)
    dataset = BinaryDataset.from_records(records)
    olh = InpOLH(PrivacyBudget(np.log(3.0)), 2).run(
        dataset, rng=np.random.default_rng(7)
    )
    hh = HeavyHitters(PrivacyBudget(3.0), 2, fanout=2, top_k=3).run_streaming(
        dataset, np.random.default_rng(8), batch_size=700
    )
    tables = [table.values for table in olh.query_all().values()]
    return tables + list(hh.level_distributions)


class TestFallback:
    def test_no_compiler_falls_back_with_one_warning(
        self, monkeypatch, caplog, cache_home
    ):
        assert resolve_backend().name == "native"
        native_estimates = _olh_and_hh_estimates()

        def no_compiler():
            raise OSError("no C compiler (cc) on PATH")

        monkeypatch.setattr(backends_module, "_compiler", no_compiler)
        monkeypatch.setattr(
            backends_module, "_BACKENDS", dict(backends_module._BACKENDS)
        )
        monkeypatch.setattr(backends_module, "_WARNED", set())
        with caplog.at_level(logging.WARNING, logger="repro.core.backends"):
            failure = backends_module._install_native()
            assert caplog.records == []  # nothing at load time
            monkeypatch.setattr(backends_module, "_NATIVE_FAILURE", failure)
            fallback = resolve_backend("auto")
            fallback_estimates = _olh_and_hh_estimates()
        expected = "threaded" if (os.cpu_count() or 1) > 1 else "numpy"
        assert fallback.name == expected
        assert "native" not in backends_module.registered_backends()
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert "no C compiler" in message and "falling back" in message
        assert not (cache_home / "repro").exists()
        assert len(native_estimates) == len(fallback_estimates)
        for ours, theirs in zip(native_estimates, fallback_estimates):
            np.testing.assert_array_equal(ours, theirs)

    def test_requesting_an_unavailable_native_takes_the_unknown_name_path(
        self, monkeypatch, caplog
    ):
        monkeypatch.setattr(
            backends_module, "_BACKENDS", dict(backends_module._BACKENDS)
        )
        monkeypatch.setattr(backends_module, "_WARNED", set())
        del backends_module._BACKENDS["native"]
        with caplog.at_level(logging.WARNING, logger="repro.core.backends"):
            backend = resolve_backend("native")
        assert backend.name in ("numpy", "threaded")
        (record,) = caplog.records
        assert "unknown kernel backend 'native'" in record.getMessage()

    def test_a_failed_build_raises_and_leaves_no_temp(
        self, monkeypatch, cache_home
    ):
        monkeypatch.setattr(
            backends_module,
            "_NATIVE_FLAGS",
            backends_module._NATIVE_FLAGS + ("--no-such-flag",),
        )
        with pytest.raises(subprocess.CalledProcessError):
            backends_module._load_native_scan()
        assert list((cache_home / "repro").iterdir()) == []


def _native_counts(scan):
    seeds, noisy = _reports(11, 257, 21)
    return NativeBackend(scan).support_counts(seeds, noisy, 300, 21, 64)


class TestCache:
    def test_first_use_builds_a_private_sealed_library(self, cache_home):
        scan = backends_module._load_native_scan()
        directory = cache_home / "repro"
        assert directory.stat().st_mode & 0o777 == 0o700
        assert backends_module._sealed(_library(cache_home))
        np.testing.assert_array_equal(
            _native_counts(scan), _native_counts(NATIVE._native_scan)
        )

    def test_a_truncated_library_is_rebuilt(self, cache_home):
        backends_module._load_native_scan()
        library = _library(cache_home)
        whole = library.read_bytes()
        # A new file, not an in-place truncation: this process has the
        # first build mapped.
        partial = library.with_suffix(".partial")
        partial.write_bytes(whole[: len(whole) // 2])
        os.replace(partial, library)
        assert not backends_module._sealed(library)
        scan = backends_module._load_native_scan()
        assert backends_module._sealed(library)
        np.testing.assert_array_equal(
            _native_counts(scan), _native_counts(NATIVE._native_scan)
        )

    @pytest.mark.parametrize("mode", [0o777, 0o720, 0o702])
    def test_a_cache_others_can_write_is_refused(self, cache_home, mode):
        directory = cache_home / "repro"
        directory.mkdir(parents=True)
        directory.chmod(mode)
        with pytest.raises(OSError, match="writable by group or others"):
            backends_module._load_native_scan()
        assert list(directory.iterdir()) == []

    def test_a_cache_owned_by_another_user_is_refused(
        self, monkeypatch, cache_home
    ):
        owner = os.getuid()
        monkeypatch.setattr(backends_module.os, "getuid", lambda: owner + 1)
        with pytest.raises(OSError, match="not owned by this user"):
            backends_module._load_native_scan()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_concurrent_first_builds_all_load(self, cache_home, tmp_path):
        """Three forked processes build into the same empty cache at once;
        each installs a whole file, loads, and counts identically."""
        children = []
        for index in range(3):
            pid = os.fork()
            if pid == 0:  # the child leaves through os._exit, never into pytest
                status = 1
                try:
                    signal.alarm(60)
                    scan = backends_module._load_native_scan()
                    np.save(tmp_path / f"counts-{index}.npy", _native_counts(scan))
                    status = 0
                finally:
                    os._exit(status)
            children.append(pid)
        for pid in children:
            _, status = os.waitpid(pid, 0)
            assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        expected = _native_counts(NATIVE._native_scan)
        for index in range(3):
            np.testing.assert_array_equal(
                np.load(tmp_path / f"counts-{index}.npy"), expected
            )
        assert backends_module._sealed(_library(cache_home))
        assert [p.name for p in (cache_home / "repro").iterdir()] == [
            _library(cache_home).name
        ]
