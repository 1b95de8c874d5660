"""The ``serve --processes`` fleet: a supervised tree on one shared port.

The acceptance bar of the multi-process tier: for **every** protocol,
reports collected by two durable collector processes sharing one port —
the kernel load-balancing connections between them — fan in (through the
supervisor's one walk, from disk once the fleet is stopped) to estimates
bit-for-bit identical to ``run_streaming`` on the same encoded reports.
Process count, like shard count and kernel backend, must be invisible in
the estimates, and a collector SIGKILLed after its ACKs loses nothing.
"""

from __future__ import annotations

import argparse
import asyncio
import socket

import numpy as np
import pytest

from repro import cli
from repro.core.exceptions import (
    CollectionServiceError,
    ProtocolConfigurationError,
)
from repro.server import LoadGenerator, restore_durable
from repro.topology import TopologySupervisor

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
    reason="a shared-port fleet needs SO_REUSEPORT",
)

BATCH_SIZE = 16  # 96 records -> 6 frames


@pytest.fixture(scope="module")
def dataset():
    return small_dataset()


def shared_port_fleet(protocol, domain, base_dir, *, processes, **kwargs):
    return TopologySupervisor(
        protocol.spec(),
        domain,
        collectors=processes,
        base_dir=base_dir,
        port=0,
        **kwargs,
    ).start()


def run_load(protocol, domain, supervisor, frames, num_clients=4):
    fleet = LoadGenerator(
        protocol.spec(),
        domain,
        *supervisor.addresses[0],
        frames=frames,
        num_clients=num_clients,
        frames_per_connection=1,  # one group per frame; the kernel
        # spreads the clients' connections over the collectors
    )
    return asyncio.run(fleet.run())


def collect_after_shutdown(supervisor):
    supervisor.shutdown()
    return asyncio.run(supervisor.collect()).merged_session()


def collect_multiprocess(protocol, frames, domain, base_dir, *, processes, **kwargs):
    """Full round trip: fleet up, client fleet run, stop, fan in."""
    supervisor = shared_port_fleet(
        protocol, domain, base_dir, processes=processes, **kwargs
    )
    try:
        report = run_load(protocol, domain, supervisor, frames)
    finally:
        # Every frame is ACKed (or the fleet raised), so every report is
        # durable in some collector's directory; stopping loses nothing.
        merged = collect_after_shutdown(supervisor)
    return merged, report, supervisor


def streaming_estimates(protocol, dataset):
    return estimates_of(
        protocol.run_streaming(
            dataset, rng=np.random.default_rng(SEED), batch_size=BATCH_SIZE
        )
    )


class TestMergedEquality:
    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_two_process_collection_matches_run_streaming(
        self, name, dataset, tmp_path
    ):
        """The headline proof, per protocol, at processes=2."""
        protocol = build(name)
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        merged, report, supervisor = collect_multiprocess(
            protocol, frames, dataset.domain, tmp_path, processes=2
        )
        assert report.acked_frames == len(frames)
        assert report.acked_reports == dataset.size
        assert merged.num_reports == dataset.size
        assert supervisor.num_reports == dataset.size
        assert_estimates_equal(
            estimates_of(merged.snapshot()),
            streaming_estimates(protocol, dataset),
        )

    @pytest.mark.parametrize("name", ["InpRR", "InpOLH"])
    def test_single_process_collector_matches_run_streaming(
        self, name, dataset, tmp_path
    ):
        """processes=1 runs the same machinery (degenerate fleet of one)."""
        protocol = build(name)
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        merged, report, _ = collect_multiprocess(
            protocol, frames, dataset.domain, tmp_path, processes=1, shards=2
        )
        assert report.acked_reports == dataset.size
        assert_estimates_equal(
            estimates_of(merged.snapshot()),
            streaming_estimates(protocol, dataset),
        )

    def test_collectors_write_state_and_metrics_per_directory(
        self, dataset, tmp_path
    ):
        protocol = build("InpRR")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        _, _, supervisor = collect_multiprocess(
            protocol, frames, dataset.domain, tmp_path, processes=2
        )
        for index in range(2):
            names = {path.name for path in (tmp_path / f"c{index}").iterdir()}
            assert {"state.npz", "metrics.json"} <= names
        metrics = supervisor.metrics_snapshot()
        assert metrics.total("repro_server_reports_total") == dataset.size


class TestCounter:
    def test_counter_loses_no_update_under_contention(self, dataset, tmp_path):
        """More collectors than cores, one-report groups from many clients:
        every commit must land in the shared counter exactly once."""
        protocol = build("InpRR")
        frames = encode_frames(protocol, dataset, 1)
        supervisor = shared_port_fleet(
            protocol, dataset.domain, tmp_path, processes=4
        )
        try:
            report = run_load(
                protocol, dataset.domain, supervisor, frames, num_clients=16
            )
        finally:
            merged = collect_after_shutdown(supervisor)
        assert report.acked_reports == dataset.size
        assert supervisor.num_reports == dataset.size
        assert merged.num_reports == dataset.size


class TestCrash:
    def test_sigkill_after_acks_loses_nothing(self, dataset, tmp_path):
        """SIGKILL a collector once every group is ACK'd, stop the fleet,
        collect: the dead collector's durable state still counts."""
        protocol = build("InpOLH")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        supervisor = shared_port_fleet(
            protocol, dataset.domain, tmp_path, processes=2
        )
        try:
            report = run_load(protocol, dataset.domain, supervisor, frames)
            held = [
                restore_durable(handle.checkpoint_dir, quarantine=False)
                for handle in supervisor.handles
            ]
            victim = max(range(2), key=lambda index: held[index].num_reports)
            assert held[victim].num_reports > 0
            supervisor.kill(victim)
        finally:
            merged = collect_after_shutdown(supervisor)
        assert report.acked_reports == dataset.size
        assert merged.num_reports == dataset.size
        assert_estimates_equal(
            estimates_of(merged.snapshot()),
            streaming_estimates(protocol, dataset),
        )


class TestStopAfterReports:
    def test_fleet_stops_at_target(self, dataset, tmp_path):
        """The shared counter ends the CLI's fleet wait loop at the target
        and the fanned-in session holds exactly that many reports."""
        protocol = build("InpRR")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        supervisor = shared_port_fleet(
            protocol, dataset.domain, tmp_path, processes=2
        )
        arguments = argparse.Namespace(stop_after_reports=dataset.size)
        fleet = LoadGenerator(
            protocol.spec(),
            dataset.domain,
            *supervisor.addresses[0],
            frames=frames,
            num_clients=2,
        )

        async def started() -> None:
            pass

        async def scenario():
            await asyncio.gather(
                cli._supervise(arguments, supervisor, started), fleet.run()
            )

        try:
            asyncio.run(scenario())
        finally:
            merged = collect_after_shutdown(supervisor)
        assert merged.num_reports == dataset.size
        assert supervisor.num_reports == dataset.size


class TestValidation:
    def test_rejects_bad_process_count(self, dataset, tmp_path):
        protocol = build("InpRR")
        with pytest.raises(ProtocolConfigurationError, match="collector count"):
            TopologySupervisor(
                protocol.spec(),
                dataset.domain,
                collectors=0,
                base_dir=tmp_path,
                port=0,
            )

    def test_cli_rejects_bad_stop_after(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([
                "serve", "--protocol", "InpRR", "--epsilon", "1.0",
                "--width", "2", "--dimension", "4", "--processes", "2",
                "--stop-after-reports", "0",
            ])
        assert excinfo.value.code == 2

    def test_double_start_refused(self, dataset, tmp_path):
        protocol = build("InpRR")
        supervisor = shared_port_fleet(
            protocol, dataset.domain, tmp_path, processes=1
        )
        try:
            with pytest.raises(
                ProtocolConfigurationError, match="already started"
            ):
                supervisor.start()
        finally:
            supervisor.shutdown()

    def test_live_shared_port_fleet_refuses_collect(self, dataset, tmp_path):
        """Its collectors cannot be addressed apart while they run."""
        protocol = build("InpRR")
        supervisor = shared_port_fleet(
            protocol, dataset.domain, tmp_path, processes=2
        )
        try:
            with pytest.raises(CollectionServiceError, match="after shutdown"):
                asyncio.run(supervisor.collect())
        finally:
            supervisor.shutdown()

    def test_empty_fleet_collects_nothing(self, dataset, tmp_path):
        """A fleet that collected nothing still leaves empty durable state."""
        protocol = build("InpRR")
        supervisor = shared_port_fleet(
            protocol, dataset.domain, tmp_path, processes=1
        )
        assert collect_after_shutdown(supervisor).num_reports == 0
