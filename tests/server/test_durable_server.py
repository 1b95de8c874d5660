"""A collector built with a checkpoint directory is a durable collector.

It restores the directory's snapshot and commit log at construction,
writes a snapshot at start, at stop and on :meth:`CollectionServer.checkpoint`,
and tells the reports it restored apart from those this run committed.  A
collector built without a directory keeps nothing on disk.
"""

from __future__ import annotations

import asyncio
import logging

import pytest

from repro.cli import _serve_stats_ticker
from repro.server import (
    ACK,
    COMMIT_LOG_FILENAME,
    DURABLE_STATE_FILENAME,
    OK,
    CollectionServer,
    restore_durable,
)
from repro.server.durable import CommitLog
from repro.service import AggregationSession

from ..chaos.injectors import enospc_on_fsync
from ..service.util import (
    assert_estimates_equal,
    build,
    encode_frames,
    estimates_of,
    small_dataset,
)
from .raw_client import send_group, wait_for

BATCH = 32  # 96 records -> 3 frames of 32 reports


@pytest.fixture(scope="module")
def setting():
    protocol = build("InpHT")
    dataset = small_dataset()
    return protocol, dataset, encode_frames(protocol, dataset, BATCH)


def _server(setting, directory, **options) -> CollectionServer:
    protocol, dataset, _ = setting
    return CollectionServer(
        protocol.spec(),
        dataset.domain,
        port=0,
        checkpoint_dir=directory,
        **options,
    )


async def _send(server, setting, token, frames):
    protocol, dataset, _ = setting
    return await send_group(
        server.port,
        protocol.spec(),
        dataset.domain.attributes,
        frames,
        token=token,
    )


def _fold(setting, frames) -> AggregationSession:
    protocol, dataset, _ = setting
    session = AggregationSession(protocol.spec(), dataset.domain)
    for frame in frames:
        session.submit(frame)
    return session


def _first_run(setting, directory) -> None:
    """Commit frames 0 and 1 as groups ``g0``, ``g1``; stop cleanly."""
    _, _, frames = setting

    async def scenario():
        server = _server(setting, directory)
        await server.start()
        for index in range(2):
            await _send(server, setting, f"g{index}", [frames[index]])
        await server.stop()

    asyncio.run(scenario())


class TestResume:
    def test_a_new_server_on_the_directory_resumes_every_acked_report(
        self, setting, tmp_path
    ):
        _, _, frames = setting
        _first_run(setting, tmp_path)

        async def second_run():
            server = _server(setting, tmp_path)
            restored = server.num_reports
            await server.start()
            replies = await _send(server, setting, "g2", [frames[2]])
            await server.stop()
            return server, restored, [reply.kind for reply in replies]

        server, restored, kinds = asyncio.run(second_run())
        assert restored == 2 * BATCH
        assert kinds == [OK, ACK]
        assert server.stats()["reports"] == 3 * BATCH
        assert_estimates_equal(
            estimates_of(server.finalize()),
            estimates_of(_fold(setting, frames).snapshot()),
        )
        on_disk = restore_durable(tmp_path)
        assert on_disk.num_reports == 3 * BATCH
        assert sorted(on_disk.checkpoint_extra["acked_tokens"]) == [
            "g0",
            "g1",
            "g2",
        ]

    def test_a_token_acked_before_the_restart_is_a_duplicate_after_it(
        self, setting, tmp_path
    ):
        _, _, frames = setting
        _first_run(setting, tmp_path)

        async def replay():
            server = _server(setting, tmp_path)
            await server.start()
            replies = await _send(server, setting, "g0", [frames[0]])
            await server.stop()
            return server, replies

        server, replies = asyncio.run(replay())
        assert [reply.kind for reply in replies] == [OK, ACK]
        assert replies[1].payload == {
            "frames": 1,
            "reports": BATCH,
            "bytes": len(frames[0]),
            "duplicate": True,
        }
        assert server.num_reports == 2 * BATCH
        assert restore_durable(tmp_path).num_reports == 2 * BATCH

    def test_stop_after_reports_counts_only_this_runs_reports(
        self, setting, tmp_path
    ):
        _, _, frames = setting
        _first_run(setting, tmp_path)

        async def second_run():
            server = _server(setting, tmp_path, stop_after_reports=BATCH)
            await server.start()
            before = server.stop_requested
            await _send(server, setting, "g2", [frames[2]])
            after = server.stop_requested
            await server.stop()
            return before, after

        # 2 * BATCH restored reports already exceed the limit; only the
        # group this run commits may trip it.
        assert asyncio.run(second_run()) == (False, True)

    def test_reports_per_second_counts_only_this_runs_reports(
        self, setting, tmp_path
    ):
        _, _, frames = setting
        _first_run(setting, tmp_path)

        async def second_run():
            server = _server(setting, tmp_path)
            await server.start()
            idle = server.stats()
            await _send(server, setting, "g2", [frames[2]])
            await server.stop()
            return idle, server.stats()

        idle, stopped = asyncio.run(second_run())
        assert idle["reports"] == 2 * BATCH
        assert idle["reports_per_second"] == 0
        assert stopped["reports"] == 3 * BATCH
        # A stopped server's uptime is frozen, so rate x uptime is exact.
        assert stopped["reports_per_second"] * stopped[
            "uptime_seconds"
        ] == pytest.approx(BATCH)

    def test_the_serve_stats_ticker_counts_only_this_runs_reports(
        self, setting, tmp_path, caplog
    ):
        _first_run(setting, tmp_path)

        async def second_run():
            server = _server(setting, tmp_path)
            await server.start()
            ticker = asyncio.create_task(_serve_stats_ticker(server, 0.02))
            try:
                await wait_for(lambda: "throughput" in caplog.text)
            finally:
                ticker.cancel()
                await asyncio.gather(ticker, return_exceptions=True)
                await server.stop()

        with caplog.at_level(logging.INFO, logger="repro.serve"):
            asyncio.run(second_run())
        first_tick = next(
            record.getMessage()
            for record in caplog.records
            if record.getMessage().startswith("throughput")
        )
        assert first_tick.startswith(f"throughput: {2 * BATCH} reports (+0.0/s)")


class TestSnapshots:
    def test_checkpoint_returns_the_snapshot_and_empties_the_log(
        self, setting, tmp_path
    ):
        _, _, frames = setting

        async def scenario():
            server = _server(setting, tmp_path)
            await server.start()
            for index in range(2):
                await _send(server, setting, f"g{index}", [frames[index]])
            logged = (tmp_path / COMMIT_LOG_FILENAME).stat().st_size
            written = server.stats()["checkpoints_written"]
            path = server.checkpoint()
            result = (
                path,
                logged,
                (tmp_path / COMMIT_LOG_FILENAME).stat().st_size,
                server.stats()["checkpoints_written"] - written,
                AggregationSession.restore(path),
                server.finalize(),
            )
            await server.stop()
            return result

        path, logged, emptied, counted, snapshot, live = asyncio.run(scenario())
        assert path == tmp_path / DURABLE_STATE_FILENAME
        assert logged > 0 and emptied == 0
        assert counted == 1
        assert snapshot.num_reports == 2 * BATCH
        assert_estimates_equal(
            estimates_of(snapshot.snapshot()), estimates_of(live)
        )

    def test_start_folds_a_replayed_log_into_a_fresh_snapshot(
        self, setting, tmp_path
    ):
        """A crash leaves a snapshot plus log records; the restarted
        collector's start snapshot covers them all and empties the log."""
        protocol, dataset, frames = setting
        log = CommitLog(tmp_path)
        log.snapshot(
            AggregationSession(protocol.spec(), dataset.domain),
            {"collector_id": "c0", "acked_tokens": {}},
        )
        for index, frame in enumerate(frames):
            group = protocol.accumulator(dataset.domain)
            group.update(protocol.decode_reports(frame))
            counts = {"frames": 1, "reports": BATCH, "bytes": len(frame)}
            log.append(f"g{index}", counts, group)
        log.close()
        replayed = (tmp_path / COMMIT_LOG_FILENAME).stat().st_size

        async def restart():
            server = _server(setting, tmp_path)
            await server.start()
            await server.stop()
            return server

        server = asyncio.run(restart())
        assert replayed > 0
        assert (tmp_path / COMMIT_LOG_FILENAME).stat().st_size == 0
        snapshot = AggregationSession.restore(tmp_path / DURABLE_STATE_FILENAME)
        assert snapshot.num_reports == len(frames) * BATCH
        assert snapshot.checkpoint_extra["log_seq"] == len(frames)
        assert sorted(snapshot.checkpoint_extra["acked_tokens"]) == [
            f"g{index}" for index in range(len(frames))
        ]
        assert_estimates_equal(
            estimates_of(snapshot.snapshot()),
            estimates_of(_fold(setting, frames).snapshot()),
        )
        assert_estimates_equal(
            estimates_of(server.finalize()), estimates_of(snapshot.snapshot())
        )

    def test_a_failed_startup_snapshot_is_covered_by_the_next_commit(
        self, setting, tmp_path, caplog
    ):
        """With no snapshot on disk a log record has nothing to replay
        onto, so the first commit after a failed start snapshot writes a
        snapshot instead of appending."""
        _, _, frames = setting

        async def scenario():
            server = _server(setting, tmp_path)
            with enospc_on_fsync():
                await server.start()
            replies = await _send(server, setting, "g0", [frames[0]])
            logged = (tmp_path / COMMIT_LOG_FILENAME).stat().st_size
            await server.stop()
            return [reply.kind for reply in replies], logged

        with caplog.at_level(logging.ERROR, logger="repro.server.server"):
            kinds, logged = asyncio.run(scenario())
        assert "startup snapshot failed" in caplog.text
        assert kinds == [OK, ACK]
        assert logged == 0
        on_disk = restore_durable(tmp_path)
        assert on_disk.num_reports == BATCH
        assert sorted(on_disk.checkpoint_extra["acked_tokens"]) == ["g0"]


def test_a_server_without_a_directory_keeps_nothing_on_disk(
    setting, tmp_path, monkeypatch
):
    protocol, dataset, frames = setting
    monkeypatch.chdir(tmp_path)

    async def scenario():
        server = CollectionServer(protocol.spec(), dataset.domain, port=0)
        await server.start()
        replies = await _send(server, setting, "g0", [frames[0]])
        await server.stop()
        return server, [reply.kind for reply in replies]

    server, kinds = asyncio.run(scenario())
    assert kinds == [OK, ACK]
    assert server.num_reports == BATCH
    stats = server.stats()
    assert stats["checkpoints_written"] == 0
    assert stats["commit_log"] is None
    assert list(tmp_path.iterdir()) == []
