"""Keep-alive connections: one connection carries many groups.

The per-connection grammar is ``(HELLO frame* FIN -> OK ... ACK)*``, so
every per-group rule has to hold *within* one connection: a token
replayed on the same connection is re-ACK'd as a duplicate and folded
once, an ``ERR`` after some committed groups closes the connection but
keeps those groups, and :meth:`CollectionServer.stop` closes connections
idle between groups at once while a connection in the middle of a group
still gets its ``ACK``.
"""

from __future__ import annotations

import asyncio
import time

from repro.observability import get_registry
from repro.server import (
    ACK,
    ERR,
    FIN,
    HELLO,
    OK,
    POISON_FRAME,
    CollectionServer,
    FrameDecoder,
    encode_control,
    hello_payload,
    restore_durable,
)

from ..service.util import build, encode_frames, small_dataset

BATCH_SIZE = 16  # 96 records -> 6 frames
PROTOCOL = build("InpRR")
DATASET = small_dataset()
SPEC = PROTOCOL.spec()
FRAMES = encode_frames(PROTOCOL, DATASET, BATCH_SIZE)


def span_count(name: str) -> int:
    data = get_registry().snapshot().value("repro_span_seconds", {"span": name})
    return data["count"] if data else 0


def group_bytes(frames, token=None) -> bytes:
    hello = encode_control(
        HELLO, hello_payload(SPEC, DATASET.domain.attributes, token=token)
    )
    return hello + b"".join(frames) + encode_control(FIN)


class Connection:
    """A raw client connection that reads replies one at a time."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self.decoder = FrameDecoder()
        self.pending = []

    @classmethod
    async def open(cls, port):
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def replies(self, count):
        """The next ``count`` replies (fewer if the server closes first)."""
        while len(self.pending) < count:
            chunk = await asyncio.wait_for(self.reader.read(1 << 16), 10.0)
            if not chunk:
                break
            self.pending.extend(self.decoder.feed(chunk))
        taken, self.pending = self.pending[:count], self.pending[count:]
        return taken

    async def closed_by_server(self) -> bool:
        return await asyncio.wait_for(self.reader.read(1 << 16), 10.0) == b""

    def close(self):
        self.writer.close()


def test_a_token_replayed_on_one_connection_is_reacked_and_folded_once(tmp_path):
    acks_before = span_count("server.ack")

    async def session():
        server = CollectionServer(
            SPEC, DATASET.domain, port=0, checkpoint_dir=tmp_path
        )
        await server.start()
        connection = await Connection.open(server.port)
        connection.writer.write(
            group_bytes(FRAMES[:2], token="t") + group_bytes(FRAMES[2:5], token="t")
        )
        replies = await connection.replies(4)
        on_disk = restore_durable(tmp_path, quarantine=False)
        stats, metrics = server.stats(), server.metrics_snapshot()
        connection.close()
        await server.stop()
        return server, replies, on_disk, stats, metrics

    server, replies, on_disk, stats, metrics = asyncio.run(session())
    assert [reply.kind for reply in replies] == [OK, ACK, OK, ACK]
    first, second = replies[1].payload, replies[3].payload
    assert "duplicate" not in first
    assert second == {**first, "duplicate": True}
    assert first["reports"] == 2 * BATCH_SIZE
    assert server.num_reports == 2 * BATCH_SIZE
    assert stats["groups"] == {"committed": 1, "duplicate": 1}
    for outcome in ("committed", "duplicate"):
        assert metrics.value("repro_server_groups_total", {"outcome": outcome}) == 1
    assert span_count("server.ack") - acks_before == 2
    assert stats["commit_log"]["records"] == 1
    assert on_disk.checkpoint_extra["log_seq"] == 1
    assert on_disk.num_reports == 2 * BATCH_SIZE
    assert stats["connections"]["total"] == 1


def test_err_after_committed_groups_keeps_them_and_closes(tmp_path):
    committed = 3

    async def session():
        server = CollectionServer(
            SPEC, DATASET.domain, port=0, checkpoint_dir=tmp_path
        )
        await server.start()
        connection = await Connection.open(server.port)
        connection.writer.write(
            b"".join(
                group_bytes([FRAMES[index]], token=f"g{index}")
                for index in range(committed)
            )
            + encode_control(
                HELLO, hello_payload(SPEC, DATASET.domain.attributes, token="bad")
            )
            + POISON_FRAME
        )
        replies = await connection.replies(2 * committed + 2)
        closed = await connection.closed_by_server()
        on_disk = restore_durable(tmp_path, quarantine=False)
        stats = server.stats()
        connection.close()
        await server.stop()
        return replies, closed, on_disk, stats

    replies, closed, on_disk, stats = asyncio.run(session())
    assert [reply.kind for reply in replies] == [OK, ACK] * committed + [OK, ERR]
    assert closed
    assert on_disk.num_reports == committed * BATCH_SIZE
    assert sorted(on_disk.checkpoint_extra["acked_tokens"]) == ["g0", "g1", "g2"]
    assert stats["groups"]["committed"] == committed
    assert stats["connections"]["rejected"] == 1


def test_stop_closes_idle_connections_at_once_and_finishes_open_groups():
    """Idle keep-alive clients do not hold ``stop()`` for the drain
    timeout; a client in the middle of a group still gets its ACK."""

    async def session():
        server = CollectionServer(SPEC, DATASET.domain, port=0)
        await server.start()
        idle = [await Connection.open(server.port) for _ in range(3)]
        for index, connection in enumerate(idle):
            connection.writer.write(group_bytes([FRAMES[index]]))
            assert [reply.kind for reply in await connection.replies(2)] == [OK, ACK]
        busy = await Connection.open(server.port)
        busy.writer.write(
            encode_control(HELLO, hello_payload(SPEC, DATASET.domain.attributes))
            + FRAMES[3]
        )
        assert [reply.kind for reply in await busy.replies(1)] == [OK]

        started = time.monotonic()
        stopping = asyncio.create_task(server.stop())
        idle_closed = [await connection.closed_by_server() for connection in idle]
        assert not stopping.done()  # still waiting for the open group
        busy.writer.write(FRAMES[4] + encode_control(FIN))
        ack = await busy.replies(1)
        await stopping
        elapsed = time.monotonic() - started
        busy_closed = await busy.closed_by_server()
        for connection in idle + [busy]:
            connection.close()
        return server, idle_closed, ack, busy_closed, elapsed

    server, idle_closed, ack, busy_closed, elapsed = asyncio.run(session())
    assert idle_closed == [True] * 3
    assert [reply.kind for reply in ack] == [ACK]
    assert ack[0].payload["frames"] == 2
    assert busy_closed
    assert elapsed < 5.0
    stats = server.stats()
    assert stats["connections"]["completed"] == 4
    assert stats["connections"]["dropped"] == 0
    assert stats["groups"]["committed"] == 4
    assert server.num_reports == 5 * BATCH_SIZE
