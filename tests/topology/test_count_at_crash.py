"""The supervisor counts what its collectors' disks hold, across a crash.

A durable collector appends each group to its commit log and
``fdatasync``s it before it counts the group (``report_observer``) and
ACKs.  A SIGKILL between the sync and the count leaves a group on disk
that no count ever saw; the fleet still merges it, so a count that stays
short of it keeps ``repro topo launch --stop-after-reports`` waiting
forever.  The supervisor therefore keeps one count per collector and, on
recovering a dead one, sets its count to the recovered state's
``num_reports``.

The kill is placed from the test side only: ``os.fdatasync`` is wrapped
before the collector process forks, and the wrapper SIGKILLs the child
right after the sync of its third commit-log append.
"""

from __future__ import annotations

import argparse
import asyncio
import multiprocessing
import os
import signal

import pytest

from repro import cli
from repro.server import ACK
from repro.topology import TopologySupervisor

from ..server.raw_client import send_group
from ..service.util import build, encode_frames, small_dataset

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the sync wrapper reaches the collector only through fork",
)

BATCH = 8  # 96 records -> 12 one-frame groups of 8 reports
KILL_AT_SYNC = 3


def test_kill_between_sync_and_count_is_counted(tmp_path, monkeypatch):
    protocol = build("InpPS")
    dataset = small_dataset()
    domain = dataset.domain
    frames = encode_frames(protocol, dataset, BATCH)
    parent = os.getpid()
    real_fdatasync = os.fdatasync
    syncs = [0]  # each forked collector counts its own syncs

    def sync_then_die(fd):
        real_fdatasync(fd)
        if os.getpid() != parent:
            syncs[0] += 1
            if syncs[0] == KILL_AT_SYNC:
                os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(os, "fdatasync", sync_then_die)
    supervisor = TopologySupervisor(
        protocol.spec(), domain, collectors=1, base_dir=tmp_path
    ).start()
    try:
        port = supervisor.handles[0].port

        async def deliver(index):
            return await send_group(
                port,
                protocol.spec(),
                domain.attributes,
                [frames[index]],
                token=f"g{index}",
            )

        for index in range(KILL_AT_SYNC - 1):
            replies = asyncio.run(deliver(index))
            assert replies[-1].kind == ACK
        # The third group is synced, then its collector dies: no ACK.
        replies = asyncio.run(deliver(KILL_AT_SYNC - 1))
        assert all(reply.kind != ACK for reply in replies)
        supervisor.handles[0].process.join(timeout=10.0)

        (dead,) = supervisor.health_check()
        recovered = supervisor.recovered_states()[dead.collector_id]
        assert recovered.num_reports == KILL_AT_SYNC * BATCH
        assert supervisor.num_reports == recovered.num_reports

        # The launcher's stop condition is met by what the disk holds.
        arguments = argparse.Namespace(
            stop_after_reports=recovered.num_reports, kill_after_reports=None
        )

        async def started():
            return None

        asyncio.run(
            asyncio.wait_for(cli._supervise(arguments, supervisor, started), 10.0)
        )

        # A restarted collector counts from its restored total, and the
        # client's retry of the unACK'd group folds nothing twice.
        supervisor.restart(0)
        assert supervisor.num_reports == KILL_AT_SYNC * BATCH
        port = supervisor.handles[0].port
        replies = asyncio.run(deliver(KILL_AT_SYNC - 1))
        assert replies[-1].kind == ACK
        assert replies[-1].payload["duplicate"] is True
        assert supervisor.num_reports == KILL_AT_SYNC * BATCH
    finally:
        supervisor.shutdown()
