"""The durable collector's commit log: torn tails, corruption, crashes.

:func:`restore_durable` is the one reader of a durable collector's disk
state — the ``state.npz`` snapshot with ``state.log`` replayed on top.
For the nine protocols and HH, every truncation of a log restores exactly
the prefix of complete records, and every single-byte flip inside a
complete record raises :class:`WireFormatError` (the trailer's
:class:`CheckpointIntegrityError` included) and quarantines both files.
A crash between a snapshot and the log truncate counts every group once,
a failed append leaves no torn bytes behind, a group with no frames keeps
its token across a restart, and compaction keeps the log bounded while
the disk state stays bit-for-bit the live one.
"""

from __future__ import annotations

import asyncio
import functools
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import CheckpointIntegrityError, WireFormatError
from repro.observability import get_registry
from repro.server import (
    ACK,
    COMMIT_LOG_FILENAME,
    DURABLE_STATE_FILENAME,
    OK,
    CollectionServer,
    restore_durable,
)
from repro.server.durable import COMPACT_RATIO, CommitLog
from repro.service import AggregationSession

from ..chaos.injectors import enospc_on_fsync
from ..service.util import ALL_PROTOCOLS, build, encode_frames, small_dataset
from .raw_client import send_group

FUZZ = settings(max_examples=100, deadline=None)

#: (token, frame indices) per group: one frame, two frames, a HELLO+FIN
#: group with no frames, and an untokened group.
GROUPS = (("t0", [0]), ("t1", [1, 2]), ("t2", []), (None, [3]))


def _group(protocol, domain, frames):
    if not frames:
        return None, {"frames": 0, "reports": 0, "bytes": 0}
    accumulator = protocol.accumulator(domain)
    for frame in frames:
        accumulator.update(protocol.decode_reports(frame))
    counts = {
        "frames": len(frames),
        "reports": accumulator.num_reports,
        "bytes": sum(map(len, frames)),
    }
    return accumulator, counts


def _fingerprint(session: AggregationSession) -> Tuple:
    """Everything restore must reproduce: state arrays, counters, tokens."""
    state = session._accumulator.state_dict()
    return (
        {name: np.asarray(value).tobytes() for name, value in state.items()},
        session.metadata,
        dict(session.checkpoint_extra.get("acked_tokens", {})),
    )


@functools.lru_cache(maxsize=None)
def history(name: str) -> Tuple[bytes, bytes, List[int], List[Tuple]]:
    """An empty snapshot, a log of :data:`GROUPS`, each record's end offset
    and the fingerprint expected after each prefix of records."""
    protocol = build(name)
    dataset = small_dataset(n=48, d=4)
    frames = encode_frames(protocol, dataset, 12)
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        session = AggregationSession(protocol.spec(), dataset.domain)
        log = CommitLog(directory)
        log.snapshot(session, {"collector_id": "c0", "acked_tokens": {}})
        tokens: Dict[str, Dict[str, int]] = {}
        session.checkpoint_extra = {"acked_tokens": {}}
        expected = [_fingerprint(session)]
        ends = []
        for token, indices in GROUPS:
            accumulator, counts = _group(
                session.protocol, session.domain, [frames[i] for i in indices]
            )
            log.append(token, counts, accumulator)
            if accumulator is not None:
                session.merge_group(
                    accumulator, frames=counts["frames"], wire_bytes=counts["bytes"]
                )
            if token is not None:
                tokens[token] = counts
            session.checkpoint_extra = {"acked_tokens": dict(tokens)}
            expected.append(_fingerprint(session))
            ends.append(log.size)
        log.close()
        snapshot = (directory / DURABLE_STATE_FILENAME).read_bytes()
        records = (directory / COMMIT_LOG_FILENAME).read_bytes()
    return snapshot, records, ends, expected


def _lay_out(directory: Path, snapshot: bytes, records: bytes) -> None:
    (directory / DURABLE_STATE_FILENAME).write_bytes(snapshot)
    (directory / COMMIT_LOG_FILENAME).write_bytes(records)


protocols = st.sampled_from(ALL_PROTOCOLS)


class TestReplay:
    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_the_whole_log_replays_onto_the_snapshot(self, name, tmp_path):
        snapshot, records, ends, expected = history(name)
        _lay_out(tmp_path, snapshot, records)
        restored = restore_durable(tmp_path)
        assert _fingerprint(restored) == expected[-1]
        assert restored.checkpoint_extra["log_seq"] == len(GROUPS)
        assert restored.checkpoint_extra["collector_id"] == "c0"
        assert "t2" in restored.checkpoint_extra["acked_tokens"]

    @FUZZ
    @given(name=protocols, data=st.data())
    def test_any_truncation_restores_the_prefix_of_complete_records(
        self, name, data
    ):
        snapshot, records, ends, expected = history(name)
        cut = data.draw(st.integers(0, len(records)), label="cut")
        complete = sum(1 for end in ends if end <= cut)
        with tempfile.TemporaryDirectory() as scratch:
            directory = Path(scratch)
            _lay_out(directory, snapshot, records[:cut])
            restored = restore_durable(directory)
            assert _fingerprint(restored) == expected[complete]
            assert restored.checkpoint_extra["log_seq"] == complete

    @FUZZ
    @given(name=protocols, data=st.data(), mask=st.integers(1, 255))
    def test_any_flip_inside_a_record_raises_and_quarantines(
        self, name, data, mask
    ):
        snapshot, records, _, _ = history(name)
        offset = data.draw(st.integers(0, len(records) - 1), label="offset")
        flipped = bytearray(records)
        flipped[offset] ^= mask
        with tempfile.TemporaryDirectory() as scratch:
            directory = Path(scratch)
            _lay_out(directory, snapshot, bytes(flipped))
            with pytest.raises(WireFormatError):
                restore_durable(directory)
            assert not (directory / DURABLE_STATE_FILENAME).exists()
            assert not (directory / COMMIT_LOG_FILENAME).exists()
            moved = sorted(path.name for path in directory.iterdir())
            assert f"{DURABLE_STATE_FILENAME}.corrupt" in moved
            assert f"{COMMIT_LOG_FILENAME}.corrupt" in moved

    def test_a_zero_filled_tail_is_torn_not_corrupt(self, tmp_path):
        snapshot, records, _, expected = history("InpRR")
        _lay_out(tmp_path, snapshot, records + bytes(64))
        assert _fingerprint(restore_durable(tmp_path)) == expected[-1]

    def test_a_log_without_its_snapshot_is_refused(self, tmp_path):
        _, records, _, _ = history("InpRR")
        (tmp_path / COMMIT_LOG_FILENAME).write_bytes(records)
        with pytest.raises(WireFormatError, match="no snapshot"):
            restore_durable(tmp_path)
        assert not (tmp_path / COMMIT_LOG_FILENAME).exists()

    def test_strict_readers_leave_corrupt_files_in_place(self, tmp_path):
        snapshot, records, _, _ = history("InpRR")
        _lay_out(tmp_path, snapshot, records[:-1] + bytes([records[-1] ^ 1]))
        with pytest.raises(CheckpointIntegrityError):
            restore_durable(tmp_path, quarantine=False)
        assert (tmp_path / COMMIT_LOG_FILENAME).exists()

    def test_an_empty_directory_has_no_state(self, tmp_path):
        assert restore_durable(tmp_path) is None


class TestCrashes:
    def test_crash_between_snapshot_and_truncate_counts_each_group_once(
        self, tmp_path
    ):
        """The snapshot covers records 1-2, but the truncate never ran, so
        the log still holds them ahead of records 3-4."""
        protocol = build("InpPS")
        dataset = small_dataset(n=48, d=4)
        frames = encode_frames(protocol, dataset, 12)
        session = AggregationSession(protocol.spec(), dataset.domain)
        log = CommitLog(tmp_path)
        log.snapshot(session, {"acked_tokens": {}})
        tokens = {}
        for index, frame in enumerate(frames):
            if index == 2:
                before_truncate = (tmp_path / COMMIT_LOG_FILENAME).read_bytes()
                log.snapshot(session, {"acked_tokens": dict(tokens)})
            accumulator, counts = _group(protocol, dataset.domain, [frame])
            log.append(f"g{index}", counts, accumulator)
            session.merge_group(accumulator, frames=1, wire_bytes=len(frame))
            tokens[f"g{index}"] = counts
        log.close()
        after = (tmp_path / COMMIT_LOG_FILENAME).read_bytes()
        (tmp_path / COMMIT_LOG_FILENAME).write_bytes(before_truncate + after)

        restored = restore_durable(tmp_path)
        assert restored.num_reports == dataset.size
        assert sorted(restored.checkpoint_extra["acked_tokens"]) == [
            "g0", "g1", "g2", "g3"
        ]
        assert restored.checkpoint_extra["log_seq"] == 4
        assert _fingerprint(restored)[0] == _fingerprint(session)[0]

        # A collector restarted there resumes the same state and re-ACKs a
        # replayed group instead of folding it again.
        async def replay():
            restarted = CollectionServer(
                protocol.spec(),
                dataset.domain,
                port=0,
                checkpoint_dir=tmp_path,
            )
            await restarted.start()
            replies = await send_group(
                restarted.port,
                protocol.spec(),
                dataset.domain.attributes,
                [frames[1]],
                token="g1",
            )
            await restarted.stop()
            return restarted, replies

        restarted, replies = asyncio.run(replay())
        assert replies[1].payload["duplicate"] is True
        assert restarted.num_reports == dataset.size

    def test_a_failed_append_leaves_no_torn_bytes(self, tmp_path):
        snapshot, records, ends, expected = history("InpRR")
        _lay_out(tmp_path, snapshot, records[: ends[1]])
        restored = restore_durable(tmp_path)
        log = CommitLog(tmp_path)
        log.seq = 2
        accumulator = restored.protocol.accumulator(restored.domain)
        with enospc_on_fsync(), pytest.raises(OSError, match="No space"):
            log.append("t9", {"frames": 0, "reports": 0, "bytes": 0}, accumulator)
        log.close()
        assert (tmp_path / COMMIT_LOG_FILENAME).read_bytes() == records[: ends[1]]
        assert _fingerprint(restore_durable(tmp_path)) == expected[2]

    def test_a_hello_fin_group_keeps_its_token_across_a_restart(self, tmp_path):
        protocol = build("InpRR")
        dataset = small_dataset()

        async def scenario():
            server = CollectionServer(
                protocol.spec(),
                dataset.domain,
                port=0,
                checkpoint_dir=tmp_path,
            )
            await server.start()
            replies = await send_group(
                server.port, protocol.spec(), dataset.domain.attributes, [],
                token="empty",
            )
            # Restart over the disk state as the live server left it: the
            # group is only in its log.
            restarted = CollectionServer(
                protocol.spec(),
                dataset.domain,
                checkpoint_dir=tmp_path,
            )
            await server.stop()
            return replies, restarted

        replies, restarted = asyncio.run(scenario())
        assert [reply.kind for reply in replies] == [OK, ACK]
        assert restarted.acked_tokens == {
            "empty": {"frames": 0, "reports": 0, "bytes": 0}
        }


def _span_count(name: str) -> int:
    data = get_registry().snapshot().value("repro_span_seconds", {"span": name})
    return data["count"] if data else 0


def test_compaction_bounds_the_log_and_disk_matches_memory(tmp_path):
    """Every commit appends inside ``server.checkpoint.durable``; only the
    startup snapshot and the compactions write ``state.npz``."""
    protocol = build("InpRR")
    dataset = small_dataset(n=480)
    frames = encode_frames(protocol, dataset, 12)
    spans = ("server.hello", "server.checkpoint.durable", "session.checkpoint")
    before = {name: _span_count(name) for name in spans}

    async def scenario():
        server = CollectionServer(
            protocol.spec(),
            dataset.domain,
            port=0,
            checkpoint_dir=tmp_path,
        )
        await server.start()
        for index, frame in enumerate(frames):
            await send_group(
                server.port,
                protocol.spec(),
                dataset.domain.attributes,
                [frame],
                token=f"g{index}",
            )
            log = server._log
            assert log.size < COMPACT_RATIO * log.snapshot_bytes
        stats, metrics = server.stats(), server.metrics_snapshot()
        restored = restore_durable(tmp_path)
        await server.stop()
        return server, stats, metrics, restored

    server, stats, metrics, restored = asyncio.run(scenario())
    log = stats["commit_log"]
    assert log["records"] == len(frames)
    assert log["compactions"] >= 1
    # One startup snapshot, then one per compaction.
    assert stats["checkpoints_written"] == 1 + log["compactions"]
    assert metrics.value("repro_server_commit_log_records_total") == len(frames)
    assert metrics.value("repro_server_commit_log_bytes_total") == log["bytes"]
    assert (
        metrics.value("repro_server_commit_log_compactions_total")
        == log["compactions"]
    )
    counted = {name: _span_count(name) - before[name] for name in spans}
    assert counted["server.hello"] == len(frames)
    # Startup, one per commit, and the final snapshot at stop().
    assert counted["server.checkpoint.durable"] == len(frames) + 2
    assert counted["session.checkpoint"] == stats["checkpoints_written"] + 1
    live = server.sessions[0]
    live.checkpoint_extra = {"acked_tokens": server.acked_tokens}
    assert _fingerprint(restored) == _fingerprint(live)
