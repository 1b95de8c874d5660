"""The native (compiled) OLH support-count scan: conformance, fallback and
cache safety.

``native`` must count exactly what the numpy scan and the retained
reference count, for every bucket count and block shape,
through both entry points (one domain, and every heavy-hitter level in one
call), and in every single-ISA build this CPU can run, not only the clone
it dispatches; when it cannot be built it must degrade to the numpy
kernels with one warning and bit-for-bit identical estimates; and its
on-disk cache must survive truncation, concurrent first builds and hostile
permissions.
"""

from __future__ import annotations

import ctypes
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
    NativeBackend,
    NumpyBackend,
    native_clone,
    resolve_backend,
)
from repro.core.privacy import PrivacyBudget
from repro.datasets import BinaryDataset
from repro.heavyhitters import HeavyHitters
from repro.mechanisms.local_hashing import OptimizedLocalHashing, _hash
from repro.observability import get_registry, metrics_enabled, set_enabled
from repro.observability.tracing import trace
from repro.protocols.inp_olh import InpOLH

from ..oracles import support_counts_reference

NATIVE = (
    backends_module._BACKEND
    if isinstance(backends_module._BACKEND, NativeBackend)
    else None
)
pytestmark = pytest.mark.skipif(
    NATIVE is None, reason="the native scan did not build on this host"
)

#: Bucket counts: the mask fold at 2, 4 and 256; the divisibility test at
#: odd g, at g = 21 (the heavy-hitter oracle's) and above 2^31.
BUCKETS = [2, 3, 4, 5, 7, 21, 256, (1 << 33) + 6]


#: Noisy buckets no honest client sends; any int64 can arrive off the wire.
HOSTILE_BUCKETS = [-1, -(2**63), 2**62, 2**63 - 1]

#: Single-ISA builds of the scan (``-DHOT=`` plus these flags), in the
#: order the clone loader ranks them, lowest first.
SINGLE_ISA_BUILDS = [
    ("default", ()),
    ("avx2", ("-mavx2",)),
    ("x86-64-v4", ("-march=x86-64-v4",)),
]


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


def _level_batch(seed, users, num_levels, num_buckets):
    """Users spread over ``num_levels`` levels with full-range seeds and a
    fifth of their buckets hostile."""
    rng = np.random.default_rng(seed)
    seeds, noisy = _reports(seed, users, num_buckets)
    hostile = rng.random(users) < 0.2
    noisy[hostile] = rng.choice(HOSTILE_BUCKETS, size=int(hostile.sum()))
    levels = rng.integers(0, num_levels, size=users)
    return levels, np.column_stack((seeds, noisy))


def _per_level_numpy(levels, pairs, domains, num_buckets, batch_size):
    numpy = NumpyBackend()
    return np.concatenate(
        [
            numpy.support_counts(
                pairs[levels == level, 0],
                pairs[levels == level, 1],
                domain,
                num_buckets,
                batch_size,
            )
            for level, domain in enumerate(domains)
        ]
    )


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
        seed=st.integers(0, 2**32 - 1),
    )
    def test_counts_equal_reference_and_numpy(
        self, num_buckets, domain_size, batch_size, users, seed
    ):
        """Against the reference and the numpy scan, for domains that are
        not multiples of the block width and odd and empty user counts."""
        seeds, noisy = _reports(seed, users, num_buckets)
        oracle = OptimizedLocalHashing(
            domain_size=domain_size,
            budget=PrivacyBudget(np.log(3.0)),
            num_buckets=num_buckets,
        )
        observed = NATIVE.support_counts(
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
            observed, support_counts_reference(oracle, seeds, noisy)
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


class TestLevels:
    @settings(max_examples=60, deadline=None)
    @given(
        num_buckets=st.sampled_from(BUCKETS),
        domains=st.lists(st.integers(2, 300), min_size=1, max_size=4),
        batch_size=st.sampled_from([1, 7, 64, 1024]),
        users=st.sampled_from([0, 1, 3, 37, 129]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_call_equals_numpy_level_by_level(
        self, num_buckets, domains, batch_size, users, seed
    ):
        """Every level's slice of the one-call result is the numpy scan
        over that level's users, with empty levels and hostile buckets."""
        levels, pairs = _level_batch(seed, users, len(domains), num_buckets)
        observed = NATIVE.support_counts_levels(
            levels, pairs, np.array(domains), num_buckets, batch_size
        )
        assert observed.dtype == np.int64
        np.testing.assert_array_equal(
            observed,
            _per_level_numpy(levels, pairs, domains, num_buckets, batch_size),
        )

    def test_extreme_seeds_on_every_level(self):
        """Seeds at both ends of int64: the C side wraps ``seed * mix``
        exactly as numpy's ``uint64`` product does."""
        seeds = np.array([-(2**63), 2**63 - 1, -1, 0] * 6, dtype=np.int64)
        noisy = np.arange(24, dtype=np.int64) % 21
        levels = np.arange(24) % 3
        pairs = np.column_stack((seeds, noisy))
        domains = [16, 256, 1024]
        np.testing.assert_array_equal(
            NATIVE.support_counts_levels(levels, pairs, np.array(domains), 21, 64),
            _per_level_numpy(levels, pairs, domains, 21, 64),
        )

    def test_malformed_operands_are_refused(self):
        """Shapes the C loop would read past, a block width that never
        advances it, a negative domain it would index backwards with, and
        levels outside the plan (which the C side itself refuses)."""
        levels = np.zeros(4, dtype=np.int64)
        pairs = np.zeros((4, 2), dtype=np.int64)
        domains = np.array([16, 32])
        bad = [
            (levels[:3], pairs, domains, 8),
            (levels, pairs[:3], domains, 8),
            (levels, pairs[:, :1], domains, 8),
            (levels[:, None], pairs, domains, 8),
            (levels, pairs, domains, 0),
            (levels, pairs, np.array([16, -1]), 8),
        ]
        for case in bad:
            with pytest.raises(ValueError, match="native level scan"):
                NATIVE._support_counts_levels(case[0], case[1], case[2], 4, case[3])
        for level in (-1, 2):
            with pytest.raises(ValueError, match=r"levels must lie in \[0, 2\)"):
                NATIVE.support_counts_levels(
                    np.array([0, level, 1]), pairs[:3], domains, 4, 8
                )

    def test_a_failed_allocation_raises_memory_error(self):
        class NoMemory:
            @staticmethod
            def repro_olh_support_counts_levels(*arguments):
                return backends_module._NATIVE_NO_MEMORY

        with pytest.raises(MemoryError):
            NativeBackend(NoMemory()).support_counts_levels(
                np.zeros(2, np.int64), np.zeros((2, 2), np.int64),
                np.array([4]), 4, 8,
            )


def _runnable(build: str) -> bool:
    """Whether this CPU runs ``build``: the dispatched clone, found with
    ``__builtin_cpu_supports``, ranks at or above it."""
    names = [name for name, _ in SINGLE_ISA_BUILDS]
    dispatched = native_clone()
    return dispatched in names and names.index(build) <= names.index(dispatched)


@pytest.fixture(scope="module", params=SINGLE_ISA_BUILDS, ids=lambda b: b[0])
def single_isa(request, tmp_path_factory):
    """The scan compiled for one ISA only, as a native backend."""
    name, flags = request.param
    if not _runnable(name):
        pytest.skip(f"this CPU cannot run the {name} build")
    compiler, _ = backends_module._compiler()
    library = tmp_path_factory.mktemp(f"olh-{name}") / "olh_scan.so"
    subprocess.run(
        [
            compiler,
            *backends_module._NATIVE_FLAGS,
            "-DHOT=",
            *flags,
            "-o",
            str(library),
            str(backends_module._NATIVE_SOURCE),
        ],
        capture_output=True,
        check=True,
        timeout=120,
    )
    return NativeBackend(backends_module._bind(ctypes.CDLL(str(library))))


class TestClones:
    def test_native_clone_names_the_dispatched_clone(self):
        assert native_clone() == NATIVE.clone
        assert native_clone() in [name for name, _ in SINGLE_ISA_BUILDS]

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        num_buckets=st.sampled_from(BUCKETS),
        domains=st.lists(st.integers(2, 300), min_size=1, max_size=4),
        batch_size=st.sampled_from([1, 7, 64, 1024]),
        users=st.sampled_from([0, 1, 3, 37, 129]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_single_isa_build_equals_numpy(
        self, single_isa, num_buckets, domains, batch_size, users, seed
    ):
        """Both entry points of a build that runs only this ISA's code,
        against the numpy scan."""
        levels, pairs = _level_batch(seed, users, len(domains), num_buckets)
        np.testing.assert_array_equal(
            single_isa.support_counts_levels(
                levels, pairs, np.array(domains), num_buckets, batch_size
            ),
            _per_level_numpy(levels, pairs, domains, num_buckets, batch_size),
        )
        np.testing.assert_array_equal(
            single_isa.support_counts(
                pairs[:, 0], pairs[:, 1], domains[0], num_buckets, batch_size
            ),
            NumpyBackend().support_counts(
                pairs[:, 0], pairs[:, 1], domains[0], num_buckets, batch_size
            ),
        )


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

    def test_one_span_covers_every_level(self):
        levels, pairs = _level_batch(5, 30, 3, 21)
        trace.clear()
        NATIVE.support_counts_levels(levels, pairs, np.array([16, 256, 64]), 21, 64)
        (span,) = trace.recent("kernel.support_counts")
        assert span["backend"] == "native"
        assert span["users"] == 30


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
        self, monkeypatch, caplog, cache_home, machine_backend
    ):
        assert resolve_backend().name == "native"
        native_estimates = _olh_and_hh_estimates()

        def no_compiler():
            raise OSError("no C compiler (cc) on PATH")

        monkeypatch.setattr(backends_module, "_compiler", no_compiler)
        with caplog.at_level(logging.WARNING, logger="repro.core.backends"):
            backend, warning = backends_module._machine_backend()
            assert caplog.records == []  # nothing at load time
            machine_backend(backend)
            monkeypatch.setattr(backends_module, "_FALLBACK_WARNING", warning)
            fallback = resolve_backend()
            fallback_estimates = _olh_and_hh_estimates()
        assert fallback.name == "numpy"
        assert native_clone() is None
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert "no C compiler" in message and "falling back" in message
        assert not (cache_home / "repro").exists()
        assert len(native_estimates) == len(fallback_estimates)
        for ours, theirs in zip(native_estimates, fallback_estimates):
            np.testing.assert_array_equal(ours, theirs)

    def test_a_failed_build_raises_and_leaves_no_temp(
        self, monkeypatch, cache_home
    ):
        monkeypatch.setattr(
            backends_module,
            "_NATIVE_FLAGS",
            backends_module._NATIVE_FLAGS + ("--no-such-flag",),
        )
        with pytest.raises(subprocess.CalledProcessError):
            backends_module._load_native_library()
        assert list((cache_home / "repro").iterdir()) == []


def _native_counts(library):
    seeds, noisy = _reports(11, 257, 21)
    return NativeBackend(library).support_counts(seeds, noisy, 300, 21, 64)


class TestCache:
    def test_first_use_builds_a_private_sealed_library(self, cache_home):
        loaded = backends_module._load_native_library()
        directory = cache_home / "repro"
        assert directory.stat().st_mode & 0o777 == 0o700
        assert backends_module._sealed(_library(cache_home))
        np.testing.assert_array_equal(
            _native_counts(loaded), _native_counts(NATIVE._library)
        )

    def test_a_truncated_library_is_rebuilt(self, cache_home):
        backends_module._load_native_library()
        library = _library(cache_home)
        whole = library.read_bytes()
        # A new file, not an in-place truncation: this process has the
        # first build mapped.
        partial = library.with_suffix(".partial")
        partial.write_bytes(whole[: len(whole) // 2])
        os.replace(partial, library)
        assert not backends_module._sealed(library)
        loaded = backends_module._load_native_library()
        assert backends_module._sealed(library)
        np.testing.assert_array_equal(
            _native_counts(loaded), _native_counts(NATIVE._library)
        )

    @pytest.mark.parametrize("mode", [0o777, 0o720, 0o702])
    def test_a_cache_others_can_write_is_refused(self, cache_home, mode):
        directory = cache_home / "repro"
        directory.mkdir(parents=True)
        directory.chmod(mode)
        with pytest.raises(OSError, match="writable by group or others"):
            backends_module._load_native_library()
        assert list(directory.iterdir()) == []

    def test_a_cache_owned_by_another_user_is_refused(
        self, monkeypatch, cache_home
    ):
        owner = os.getuid()
        monkeypatch.setattr(backends_module.os, "getuid", lambda: owner + 1)
        with pytest.raises(OSError, match="not owned by this user"):
            backends_module._load_native_library()

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
                    loaded = backends_module._load_native_library()
                    np.save(tmp_path / f"counts-{index}.npy", _native_counts(loaded))
                    status = 0
                finally:
                    os._exit(status)
            children.append(pid)
        for pid in children:
            _, status = os.waitpid(pid, 0)
            assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        expected = _native_counts(NATIVE._library)
        for index in range(3):
            np.testing.assert_array_equal(
                np.load(tmp_path / f"counts-{index}.npy"), expected
            )
        assert backends_module._sealed(_library(cache_home))
        assert [p.name for p in (cache_home / "repro").iterdir()] == [
            _library(cache_home).name
        ]
