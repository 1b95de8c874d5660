"""The supervisor counts what its collectors' disks hold, across a crash.

A durable collector commits a group in five steps: it appends the group to
its commit log (``CommitLog.append``: ``os.write``, then
``os.fdatasync``), counts it (``report_observer``), writes the ``ACK`` and
drains it.  When the log has grown enough, a compaction runs between the
sync and the count: it writes a fresh ``state.npz`` (a temp file, its
``fsync``, ``os.replace``, the directory ``fsync``) and then truncates the
log.  A SIGKILL can land between any two of these steps.  At each of the
five commit points and the four compaction points below a subprocess
collector is killed at its third group, and four things must hold:

* every token the client got an ``ACK`` for is in ``restore_durable``;
* the client's retry of the third group folds it exactly once;
* the supervisor's count equals the restored state's ``num_reports``
  (a group on disk that no count saw would keep
  ``repro topo launch --stop-after-reports`` waiting forever);
* ``cli._supervise`` with ``--stop-after-reports`` at that count returns.

Each kill is placed from the test side only: a wrapper around
``CommitLog.append``, ``os.fdatasync``, the server's ``encode_control``
or ``asyncio.StreamWriter.drain`` (the commit points), or around
``os.write``, ``os.replace``, the checkpoint writer's directory ``fsync``
or ``os.ftruncate`` inside ``CommitLog.snapshot`` (the compaction points,
with ``COMPACT_RATIO`` at 0 so every commit compacts), is installed before
the collector process forks, and it SIGKILLs the child at its point.  A
group written but not yet synced is on disk after the kill: the process
died, not the machine, so the write is in the page cache.  The group is
synced before its compaction starts, so it survives every compaction
point: a torn or unrenamed ``state.npz`` leaves the previous snapshot and
the log, and a snapshot the log was not yet cut back for covers records
whose ``seq`` the replay skips.
"""

from __future__ import annotations

import argparse
import asyncio
import multiprocessing
import os
import signal
from pathlib import Path

import pytest

from repro import cli
from repro.server import ACK, restore_durable
from repro.service import AggregationSession
from repro.server import durable as durable_module
from repro.server import server as server_module
from repro.service import session as session_module
from repro.topology import TopologySupervisor

from ..server.raw_client import send_group
from ..service.util import build, encode_frames, small_dataset

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the wrappers reach the collector only through fork",
)

BATCH = 8  # 96 records -> 12 one-frame groups of 8 reports
KILL_AT = 3  # the group whose commit the kill interrupts

#: Each crash point, and whether the interrupted group is on disk after it.
POINTS = {
    "before_log_write": False,
    "between_write_and_sync": True,
    "between_sync_and_observer": True,
    "between_observer_and_ack": True,
    "after_ack": True,
    "during_snapshot_write": True,
    "at_snapshot_replace": True,
    "at_snapshot_directory_fsync": True,
    "between_snapshot_and_truncate": True,
}


#: The compaction points: the call the kill replaces inside the
#: ``KILL_AT``-th group's compaction.
COMPACTION_KILLS = {
    "during_snapshot_write": (os, "write"),
    "at_snapshot_replace": (os, "replace"),
    "at_snapshot_directory_fsync": (session_module, "fsync_directory"),
    "between_snapshot_and_truncate": (os, "ftruncate"),
}


def _die():
    os.kill(os.getpid(), signal.SIGKILL)


def _install_kill(point, monkeypatch, parent):
    """Wrap the step before (or after) ``point`` so that the forked
    collector dies there at its ``KILL_AT``-th group."""
    seen = [0]  # each forked collector counts its own calls

    def due():
        if os.getpid() == parent:
            return False
        seen[0] += 1
        return seen[0] == KILL_AT

    if point in COMPACTION_KILLS:
        # Every commit compacts; the collector's first snapshot is its
        # start's, so its KILL_AT-th group's compaction is snapshot
        # KILL_AT + 1.
        monkeypatch.setattr(durable_module, "COMPACT_RATIO", 0)
        real_snapshot = durable_module.CommitLog.snapshot
        snapshots = [0]
        armed = [False]

        def snapshot(self, *args, **kwargs):
            if os.getpid() != parent:
                snapshots[0] += 1
                armed[0] = snapshots[0] == KILL_AT + 1
            try:
                return real_snapshot(self, *args, **kwargs)
            finally:
                armed[0] = False

        monkeypatch.setattr(durable_module.CommitLog, "snapshot", snapshot)
        module, name = COMPACTION_KILLS[point]
        real_step = getattr(module, name)

        def step(*args, **kwargs):
            if armed[0]:
                if point == "during_snapshot_write":
                    # Half of the new state.npz reaches its temp file.
                    handle, data = args
                    real_step(handle, bytes(data)[: len(data) // 2])
                _die()
            return real_step(*args, **kwargs)

        monkeypatch.setattr(module, name, step)
    elif point == "before_log_write":
        real_append = durable_module.CommitLog.append

        def append(self, *args, **kwargs):
            if due():
                _die()
            return real_append(self, *args, **kwargs)

        monkeypatch.setattr(durable_module.CommitLog, "append", append)
    elif point in ("between_write_and_sync", "between_sync_and_observer"):
        real_fdatasync = os.fdatasync

        def fdatasync(fd):
            if point == "between_write_and_sync" and due():
                _die()
            real_fdatasync(fd)
            if point == "between_sync_and_observer" and due():
                _die()

        monkeypatch.setattr(os, "fdatasync", fdatasync)
    else:
        real_encode = server_module.encode_control
        real_drain = asyncio.StreamWriter.drain
        acked = [False]

        def encode_control(kind, *args, **kwargs):
            if kind == ACK and due():
                if point == "between_observer_and_ack":
                    _die()
                acked[0] = True
            return real_encode(kind, *args, **kwargs)

        async def drain(self):
            await real_drain(self)
            if acked[0]:
                _die()

        monkeypatch.setattr(server_module, "encode_control", encode_control)
        monkeypatch.setattr(asyncio.StreamWriter, "drain", drain)


def _assert_compaction_cut(point, directory):
    """The kill cut the third group's compaction where it was placed:
    before the rename a temp file lies beside the second compaction's
    snapshot; after it the snapshot covers the third group, whose record
    the log still holds."""
    renamed = point in ("at_snapshot_directory_fsync", "between_snapshot_and_truncate")
    temp = [path for path in directory.iterdir() if path.name.endswith(".tmp")]
    assert len(temp) == (0 if renamed else 1)
    state_path = directory / durable_module.DURABLE_STATE_FILENAME
    state = AggregationSession.restore(state_path)
    assert state.checkpoint_extra["log_seq"] == (KILL_AT if renamed else KILL_AT - 1)
    assert (directory / durable_module.COMMIT_LOG_FILENAME).stat().st_size > 0


@pytest.mark.parametrize("point", sorted(POINTS))
def test_kill_at_each_commit_step_is_counted_and_retried_once(
    point, tmp_path, monkeypatch
):
    protocol = build("InpPS")
    dataset = small_dataset()
    domain = dataset.domain
    frames = encode_frames(protocol, dataset, BATCH)
    _install_kill(point, monkeypatch, os.getpid())
    supervisor = TopologySupervisor(
        protocol.spec(), domain, collectors=1, base_dir=tmp_path
    ).start()
    try:

        async def deliver(index):
            return await send_group(
                supervisor.handles[0].port,
                protocol.spec(),
                domain.attributes,
                [frames[index]],
                token=f"g{index}",
            )

        acked = []
        for index in range(KILL_AT):
            replies = asyncio.run(deliver(index))
            if any(reply.kind == ACK for reply in replies):
                acked.append(f"g{index}")
        supervisor.handles[0].process.join(timeout=10.0)
        assert acked == [f"g{index}" for index in range(KILL_AT - 1)] + (
            [f"g{KILL_AT - 1}"] if point == "after_ack" else []
        )

        (dead,) = supervisor.health_check()
        on_disk = (KILL_AT if POINTS[point] else KILL_AT - 1) * BATCH
        if point in COMPACTION_KILLS:
            _assert_compaction_cut(point, Path(dead.checkpoint_dir))
        restored = restore_durable(dead.checkpoint_dir, quarantine=False)
        assert restored.num_reports == on_disk
        assert set(acked) <= set(restored.checkpoint_extra["acked_tokens"])
        recovered = supervisor.recovered_states()[dead.collector_id]
        assert recovered.num_reports == on_disk
        assert supervisor.num_reports == on_disk

        # The launcher's stop condition is met by what the disk holds.
        arguments = argparse.Namespace(
            stop_after_reports=on_disk, kill_after_reports=None
        )

        async def started():
            return None

        asyncio.run(
            asyncio.wait_for(cli._supervise(arguments, supervisor, started), 10.0)
        )

        # A restarted collector counts from its restored total, and the
        # client's retry of the interrupted group folds it exactly once.
        supervisor.restart(0)
        assert supervisor.num_reports == on_disk
        replies = asyncio.run(deliver(KILL_AT - 1))
        assert replies[-1].kind == ACK
        assert replies[-1].payload.get("duplicate", False) is POINTS[point]
        assert supervisor.num_reports == KILL_AT * BATCH
    finally:
        supervisor.shutdown()
