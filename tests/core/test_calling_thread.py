"""Every kernel runs on the thread that calls it.

Parallelism belongs to processes (the supervisor's collectors,
``ProcessExecutor``); a kernel call starts no thread, however large its
input.  The sizes here are at least four times the 2^21 elements above
which kernel calls used to fan out over a thread pool, and the counts
must still equal the numpy scan's and the reference's.
"""

from __future__ import annotations

import asyncio
import os
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import backends as backends_module
from repro.core.backends import NativeBackend, NumpyBackend
from repro.core.privacy import PrivacyBudget
from repro.mechanisms.local_hashing import OptimizedLocalHashing
from repro.server import LoadGenerator
from repro.server.server import DEFAULT_BATCH_MAX_USERS
from repro.topology import TopologySupervisor

from ..oracles import popcount_reference, support_counts_reference
from ..service.util import build, encode_frames, small_dataset

BACKENDS = [NumpyBackend()]
if isinstance(backends_module._BACKEND, NativeBackend):
    BACKENDS.append(backends_module._BACKEND)

#: Heavy-hitter prefix-level domains, widest last.
HH_DOMAINS = (16, 256, 1024)


@pytest.fixture(params=BACKENDS, ids=lambda backend: backend.name)
def backend(request):
    return request.param


@contextmanager
def no_thread_started(monkeypatch):
    """Fails unless the block starts no thread and leaves none behind.

    The count may fall (a thread another test left may end meanwhile),
    never rise."""
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    before = set(threading.enumerate())
    yield
    assert started == []
    assert threading.active_count() <= len(before)
    assert set(threading.enumerate()) <= before
    assert not [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("repro-kernel")
    ]


def _oracle(domain_size, num_buckets):
    return OptimizedLocalHashing(
        domain_size=domain_size,
        budget=PrivacyBudget(np.log(3.0)),
        num_buckets=num_buckets,
    )


@pytest.mark.parametrize("num_buckets", [4, 21])
def test_support_counts_start_no_thread(backend, monkeypatch, num_buckets):
    users, domain_size = 32_768, 256  # 2^23 elements
    rng = np.random.default_rng([users, num_buckets])
    seeds = rng.integers(-(2**63), 2**63 - 1, size=users, dtype=np.int64)
    noisy = rng.integers(0, num_buckets, size=users, dtype=np.int64)
    with no_thread_started(monkeypatch):
        observed = backend.support_counts(
            seeds, noisy, domain_size, num_buckets, 1024
        )
    np.testing.assert_array_equal(
        observed,
        NumpyBackend().support_counts(seeds, noisy, domain_size, num_buckets, 1024),
    )
    np.testing.assert_array_equal(
        observed,
        support_counts_reference(
            _oracle(domain_size, num_buckets), seeds, noisy, batch_size=32
        ),
    )


def test_support_counts_levels_start_no_thread(backend, monkeypatch):
    users, num_buckets = 8_192, 21  # 8,192 x 1,024 = 2^23 at the widest
    rng = np.random.default_rng(32)
    levels = rng.integers(0, len(HH_DOMAINS), size=users)
    pairs = np.column_stack(
        (
            rng.integers(-(2**63), 2**63 - 1, size=users, dtype=np.int64),
            rng.integers(0, num_buckets, size=users, dtype=np.int64),
        )
    )
    domains = np.array(HH_DOMAINS)
    with no_thread_started(monkeypatch):
        observed = backend.support_counts_levels(
            levels, pairs, domains, num_buckets, 1024
        )
    np.testing.assert_array_equal(
        observed,
        NumpyBackend().support_counts_levels(
            levels, pairs, domains, num_buckets, 1024
        ),
    )
    reference = [
        support_counts_reference(
            _oracle(domain, num_buckets),
            pairs[levels == level, 0],
            pairs[levels == level, 1],
            batch_size=32,
        )
        for level, domain in enumerate(HH_DOMAINS)
    ]
    np.testing.assert_array_equal(observed, np.concatenate(reference))


def test_popcount_and_parity_start_no_thread(backend, monkeypatch):
    rng = np.random.default_rng(23)
    words = rng.integers(0, 2**63, size=1 << 21, dtype=np.int64).astype(
        np.uint64
    )
    with no_thread_started(monkeypatch):
        counts = backend.popcount(words)
        parities = backend.parity(words)
    reference = popcount_reference(words)
    np.testing.assert_array_equal(counts, reference)
    np.testing.assert_array_equal(parities, reference & 1)


def _thread_count(pid):
    return len(os.listdir(f"/proc/{pid}/task"))


@pytest.mark.skipif(
    not os.path.isdir(f"/proc/{os.getpid()}/task"),
    reason="counts a process's threads through /proc",
)
def test_a_forked_collector_folds_a_large_olh_group_on_its_own_thread(
    tmp_path,
):
    """Two blocks' worth of InpOLH users at d = 8 in one group, so at
    least one fold hands the kernel 8,192 users x 256 cells; the
    collector's thread count is the same before the group and after its
    ACK."""
    dataset = small_dataset(n=2 * DEFAULT_BATCH_MAX_USERS, d=8, seed=8)
    protocol = build("InpOLH")
    frames = encode_frames(protocol, dataset, 1024)
    supervisor = TopologySupervisor(
        protocol.spec(), dataset.domain, collectors=1, base_dir=tmp_path
    ).start()
    try:
        (handle,) = supervisor.handles
        before = _thread_count(handle.process.pid)
        report = asyncio.run(
            LoadGenerator(
                protocol.spec(),
                dataset.domain,
                *supervisor.addresses[0],
                frames=frames,
                num_clients=1,
            ).run()
        )
        after = _thread_count(handle.process.pid)
    finally:
        supervisor.shutdown()
    assert report.acked_reports == dataset.size
    assert report.connections == 1
    assert after == before
