"""One write each way and one fold per group on a kept-alive connection.

The control answers a collector makes while processing one read leave in
one write: a group whose ``HELLO``, frames and ``FIN`` arrive together is
answered with ``OK`` and ``ACK`` in one write, after its commit.  An
``OK`` is never held back: a client that waits for it before sending
frames gets it, and it precedes any ``ERR``.  A group that has never
folded folds at the end of the read that brought its frames, so a group
delivered in one read is one ``decode_report_block``, and a first frame
that does not fit the domain earns ``ERR`` before the client's ``FIN``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.protocols.base import MarginalReleaseProtocol
from repro.server import (
    ACK,
    ERR,
    FIN,
    HELLO,
    OK,
    CollectionServer,
    FrameDecoder,
    LoadGenerator,
    encode_control,
    hello_payload,
)

from ..service.util import build, encode_frames, small_dataset

BATCH_SIZE = 24  # 96 records -> 4 frames


class _RecordingWriter:
    """A stream writer that records the bytes of every ``write`` call."""

    def __init__(self, writer, writes):
        self._writer = writer
        self._writes = writes

    def write(self, data):
        self._writes.append(bytes(data))
        self._writer.write(data)

    def writelines(self, data):
        self.write(b"".join(data))

    def __getattr__(self, name):
        return getattr(self._writer, name)


def _kinds(data):
    """The control kinds in ``data``, with ``"frame"`` for a report frame."""
    return [
        getattr(item, "kind", "frame") for item in FrameDecoder().feed(data)
    ]


@pytest.fixture
def server_writes(monkeypatch):
    """The collector's writes, one list of control kinds per write."""
    writes = []
    original = CollectionServer._on_client

    async def recording(self, reader, writer):
        await original(self, reader, _RecordingWriter(writer, writes))

    monkeypatch.setattr(CollectionServer, "_on_client", recording)
    return writes


@pytest.fixture
def block_decodes(monkeypatch):
    """The number of frames in each ``decode_report_block`` call."""
    blocks = []
    original = MarginalReleaseProtocol.decode_report_block

    def counting(self, frames, domain=None):
        blocks.append(len(frames))
        return original(self, frames, domain)

    monkeypatch.setattr(MarginalReleaseProtocol, "decode_report_block", counting)
    return blocks


class _Peer:
    """One raw client connection that reads control answers as they come."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self.decoder = FrameDecoder()

    @classmethod
    async def open(cls, port):
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def send(self, *chunks):
        self.writer.write(b"".join(chunks))
        await self.writer.drain()

    async def replies(self, count):
        replies = []
        while len(replies) < count:
            chunk = await asyncio.wait_for(self.reader.read(1 << 16), 10.0)
            if not chunk:
                break
            replies.extend(self.decoder.feed(chunk))
        return replies

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _hello(protocol, dataset, token=None):
    return encode_control(
        HELLO, hello_payload(protocol.spec(), dataset.domain.attributes, token=token)
    )


def test_a_group_sent_in_one_write_gets_ok_and_ack_in_one_write(server_writes):
    protocol = build("InpRR")
    dataset = small_dataset()
    frames = encode_frames(protocol, dataset, BATCH_SIZE)

    async def session():
        server = CollectionServer(protocol.spec(), dataset.domain, port=0)
        await server.start()
        peer = await _Peer.open(server.port)
        groups = []
        for index, frame in enumerate(frames[:2]):
            await peer.send(
                _hello(protocol, dataset, f"g{index}"), frame, encode_control(FIN)
            )
            groups.append([reply.kind for reply in await peer.replies(2)])
        await peer.close()
        await server.stop()
        return server, groups

    server, groups = asyncio.run(session())
    assert groups == [[OK, ACK], [OK, ACK]]
    assert [_kinds(data) for data in server_writes] == [[OK, ACK], [OK, ACK]]
    assert server.num_reports == 2 * BATCH_SIZE


def test_a_pipelined_loadgen_group_is_one_write_each_way(
    server_writes, monkeypatch
):
    """The fleet's first group waits for ``OK``; every later group is one
    client write answered by one collector write."""
    protocol = build("InpRR")
    dataset = small_dataset()
    frames = encode_frames(protocol, dataset, 8)  # 12 frames, 3 groups of 4
    client_writes = []
    original_connect = LoadGenerator._connect

    async def recording_connect(self, address):
        connection = await original_connect(self, address)
        connection.writer = _RecordingWriter(connection.writer, client_writes)
        return connection

    monkeypatch.setattr(LoadGenerator, "_connect", recording_connect)

    async def session():
        server = CollectionServer(protocol.spec(), dataset.domain, port=0)
        await server.start()
        report = await LoadGenerator(
            protocol.spec(),
            dataset.domain,
            "127.0.0.1",
            server.port,
            frames=frames,
            num_clients=1,
            frames_per_connection=4,
            token_prefix="one-write",
        ).run()
        await server.stop()
        return report

    report = asyncio.run(session())
    assert report.acked_reports == dataset.size
    group = ["frame"] * 4 + [FIN]
    # The first group waits for OK after its HELLO, then sends its frames
    # and FIN in one write; each later group is HELLO, frames and FIN.
    assert [_kinds(data) for data in client_writes] == [
        [HELLO], group, [HELLO] + group, [HELLO] + group
    ]
    assert [_kinds(data) for data in server_writes] == [
        [OK], [ACK], [OK, ACK], [OK, ACK]
    ]


@pytest.mark.parametrize("name", ["InpRR", "HH"])
def test_a_group_in_one_read_is_one_block(name, block_decodes):
    protocol = build(name)
    dataset = small_dataset()
    frames = encode_frames(protocol, dataset, BATCH_SIZE)
    assert len(frames) == 4

    async def session():
        server = CollectionServer(protocol.spec(), dataset.domain, port=0)
        await server.start()
        peer = await _Peer.open(server.port)
        await peer.send(_hello(protocol, dataset), *frames, encode_control(FIN))
        replies = await peer.replies(2)
        await peer.close()
        await server.stop()
        return server, replies

    server, replies = asyncio.run(session())
    assert [reply.kind for reply in replies] == [OK, ACK]
    assert block_decodes == [4]
    assert server.num_reports == dataset.size


def test_a_lone_hello_gets_ok_before_any_frame_is_sent():
    protocol = build("InpRR")
    dataset = small_dataset()
    frames = encode_frames(protocol, dataset, BATCH_SIZE)

    async def session():
        server = CollectionServer(protocol.spec(), dataset.domain, port=0)
        await server.start()
        peer = await _Peer.open(server.port)
        await peer.send(_hello(protocol, dataset))
        opened = await peer.replies(1)
        await peer.send(*frames, encode_control(FIN))
        closed = await peer.replies(1)
        await peer.close()
        await server.stop()
        return server, opened, closed

    server, opened, closed = asyncio.run(session())
    assert [reply.kind for reply in opened] == [OK]
    assert [reply.kind for reply in closed] == [ACK]
    assert closed[0].payload["frames"] == len(frames)
    assert server.num_reports == dataset.size


def test_an_out_of_domain_first_frame_gets_err_before_fin():
    """The client sends no ``FIN``: the frame's fold at the end of its read
    refuses it, and ``OK`` still comes first."""
    protocol = build("InpRR")
    dataset = small_dataset()
    wrong_dimension = encode_frames(protocol, small_dataset(n=32, d=5), None)

    async def session():
        server = CollectionServer(protocol.spec(), dataset.domain, port=0)
        await server.start()
        peer = await _Peer.open(server.port)
        await peer.send(_hello(protocol, dataset), wrong_dimension[0])
        replies = await peer.replies(2)
        await peer.close()
        await server.stop()
        return server, replies

    server, replies = asyncio.run(session())
    assert [reply.kind for reply in replies] == [OK, ERR]
    assert "shape" in replies[1].payload["error"]
    assert server.stats()["connections"]["rejected"] == 1
    assert server.num_reports == 0
