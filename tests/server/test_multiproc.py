"""MultiProcessCollector end to end: SO_REUSEPORT fleet, merged estimates.

The acceptance bar of the multi-process tier: for **every** protocol,
reports collected by two worker processes sharing one port — the kernel
load-balancing connections between them — merge (through the worker
checkpoints) to estimates bit-for-bit identical to ``run_streaming`` on
the same encoded reports.  Process count, like shard count and kernel
backend, must be invisible in the estimates.
"""

from __future__ import annotations

import asyncio
import socket

import numpy as np
import pytest

from repro.core.exceptions import (
    CollectionServiceError,
    ProtocolConfigurationError,
)
from repro.server import LoadGenerator, MultiProcessCollector

from ..service.util import (
    ALL_PROTOCOLS,
    SEED,
    assert_estimates_equal,
    build,
    encode_frames,
    estimates_of,
    small_dataset,
)

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "SO_REUSEPORT"),
    reason="the multi-process tier needs SO_REUSEPORT",
)

BATCH_SIZE = 16  # 96 records -> 6 frames


@pytest.fixture(scope="module")
def dataset():
    return small_dataset()


def collect_multiprocess(
    protocol, frames, domain, checkpoint_dir, *, processes, **kwargs
):
    """Full round trip: worker fleet up, client fleet run, merge, return."""
    collector = MultiProcessCollector(
        protocol.spec(),
        domain,
        processes=processes,
        checkpoint_dir=checkpoint_dir,
        port=0,
        **kwargs,
    )
    collector.start()
    try:
        fleet = LoadGenerator(
            protocol.spec(),
            domain,
            "127.0.0.1",
            collector.port,
            frames=frames,
            num_clients=4,
            frames_per_connection=1,  # one group per frame; the kernel
            # spreads the four clients' connections over the workers
        )
        report = asyncio.run(fleet.run())
    finally:
        # Every frame is ACKed (or the fleet raised), so every report is in
        # some worker's sessions; stopping now loses nothing.
        collector.stop()
    merged = collector.join(timeout=30.0)
    return merged, report


class TestMergedEquality:
    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_two_process_collection_matches_run_streaming(
        self, name, dataset, tmp_path
    ):
        """The headline proof, per protocol, at processes=2."""
        protocol = build(name)
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        merged, report = collect_multiprocess(
            protocol, frames, dataset.domain, tmp_path, processes=2
        )
        assert report.acked_frames == len(frames)
        assert report.acked_reports == dataset.size
        assert merged.num_reports == dataset.size
        expected = estimates_of(
            protocol.run_streaming(
                dataset,
                rng=np.random.default_rng(SEED),
                batch_size=BATCH_SIZE,
            )
        )
        assert_estimates_equal(estimates_of(merged.snapshot()), expected)

    @pytest.mark.parametrize("name", ["InpRR", "InpOLH"])
    def test_single_process_collector_matches_run_streaming(
        self, name, dataset, tmp_path
    ):
        """processes=1 runs the same machinery (degenerate fleet of one)."""
        protocol = build(name)
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        merged, report = collect_multiprocess(
            protocol, frames, dataset.domain, tmp_path, processes=1, shards=2
        )
        assert report.acked_reports == dataset.size
        expected = estimates_of(
            protocol.run_streaming(
                dataset,
                rng=np.random.default_rng(SEED),
                batch_size=BATCH_SIZE,
            )
        )
        assert_estimates_equal(estimates_of(merged.snapshot()), expected)


class TestStopAfterReports:
    def test_fleet_stops_at_target(self, dataset, tmp_path):
        """The shared counter shuts the whole fleet down at the target and
        the merged session holds at least that many reports."""
        protocol = build("InpRR")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        collector = MultiProcessCollector(
            protocol.spec(),
            dataset.domain,
            processes=2,
            checkpoint_dir=tmp_path,
            port=0,
            stop_after_reports=dataset.size,
        )
        collector.start()
        fleet = LoadGenerator(
            protocol.spec(),
            dataset.domain,
            "127.0.0.1",
            collector.port,
            frames=frames,
            num_clients=2,
        )
        asyncio.run(fleet.run())
        merged = collector.join(timeout=30.0)
        assert merged.num_reports == dataset.size
        assert collector.num_reports == dataset.size


class TestValidation:
    def test_rejects_bad_process_count(self, dataset, tmp_path):
        protocol = build("InpRR")
        with pytest.raises(ProtocolConfigurationError, match="process count"):
            MultiProcessCollector(
                protocol.spec(),
                dataset.domain,
                processes=0,
                checkpoint_dir=tmp_path,
            )

    def test_rejects_bad_stop_after(self, dataset, tmp_path):
        protocol = build("InpRR")
        with pytest.raises(
            ProtocolConfigurationError, match="stop_after_reports"
        ):
            MultiProcessCollector(
                protocol.spec(),
                dataset.domain,
                processes=1,
                checkpoint_dir=tmp_path,
                stop_after_reports=0,
            )

    def test_join_before_start_refused(self, dataset, tmp_path):
        protocol = build("InpRR")
        collector = MultiProcessCollector(
            protocol.spec(), dataset.domain, processes=1, checkpoint_dir=tmp_path
        )
        with pytest.raises(ProtocolConfigurationError, match="never started"):
            collector.join()

    def test_double_start_refused(self, dataset, tmp_path):
        protocol = build("InpRR")
        collector = MultiProcessCollector(
            protocol.spec(), dataset.domain, processes=1, checkpoint_dir=tmp_path
        )
        collector.start()
        try:
            with pytest.raises(
                ProtocolConfigurationError, match="already started"
            ):
                collector.start()
        finally:
            collector.stop()
            collector.join(timeout=30.0)

    def test_join_without_checkpoints_raises(self, dataset, tmp_path):
        """A fleet that collected nothing still checkpoints (empty sessions);
        this guards the no-files-at-all corruption case instead."""
        protocol = build("InpRR")
        collector = MultiProcessCollector(
            protocol.spec(), dataset.domain, processes=1, checkpoint_dir=tmp_path
        )
        collector.start()
        collector.stop()
        merged = collector.join(timeout=30.0)
        assert merged.num_reports == 0
