"""A collector parses each report frame once, and refuses what the wire
codec refuses, in the same words.

The server cuts a report frame with :class:`FrameDecoder` (magic, version,
declared length) and parses it with ``protocol.parse_report_frame``: one
unpack of the frame head, checked against its schema's constants, and one
CRC-32.  Anything that fails those comparisons goes to the wire codec's
descriptive refusal path.  These tests hold the two ends together:

* over every registered protocol and HH, every truncation and every
  single-byte flip of a valid frame, and every flip of its payload with
  the CRC-32 recomputed (so the payload checks see it), the server's cut
  and parse reach the verdict ``protocol.decode_reports`` reaches: the
  same batch, or a ``WireFormatError`` with the same message;
* a live :class:`CollectionServer` answers each such frame with that
  ``ERR`` and keeps serving;
* the server reads a report frame's header once: the decoder's cut reads
  the prefix, and the parse takes the rest from its one unpack, never
  through the codec's header parser.
"""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.core.exceptions import WireFormatError
from repro.protocols import wire
from repro.server import (
    ACK,
    DEFAULT_MAX_FRAME_BYTES,
    ERR,
    CollectionServer,
    FrameDecoder,
)
from repro.server import framing

from ..service.util import (
    ALL_PROTOCOLS,
    build,
    encode_frames,
    forge_frame,
    payload_body,
    small_dataset,
)
from .raw_client import send_group

DATASET = small_dataset(n=12, d=4)


def _valid_frame(protocol) -> bytes:
    (frame,) = encode_frames(protocol, DATASET, None)
    return frame


def _damaged(frame: bytes, kind: str):
    """Every truncation, every single-byte flip, and every payload-byte
    flip behind a recomputed CRC-32, of ``frame``."""
    for cut in range(len(frame)):
        yield frame[:cut]
    for position in range(len(frame)):
        for mask in (0x01, 0xFF):
            flipped = bytearray(frame)
            flipped[position] ^= mask
            yield bytes(flipped)
    body = payload_body(frame)
    for position in range(len(body)):
        flipped = bytearray(body)
        flipped[position] ^= 0xFF
        yield forge_frame(kind, bytes(flipped))


def _server_verdict(protocol, data: bytes):
    """What a collector makes of ``data``, in its order: each frame is
    parsed as its decoder yields it, and the parsed frames are unpacked
    as one block once the read is through.  ``("refused", message)`` when
    a parse or the block refuses, ``("cut", message)`` when the decoder
    refuses the stream, ``("waiting", None)`` while no frame is whole,
    else ``("batch", batch)``; each with the decoder."""
    decoder = FrameDecoder(max_frame_bytes=DEFAULT_MAX_FRAME_BYTES)
    parsed = []
    try:
        decoder.absorb(data)
        for item in decoder.frames():
            try:
                parsed.append(protocol.parse_report_frame(item, DATASET.domain))
            except WireFormatError as error:
                return "refused", str(error), decoder
    except WireFormatError as error:
        return "cut", str(error), decoder
    if not parsed:
        return "waiting", None, decoder
    try:
        batch = protocol.decode_report_block(parsed, DATASET.domain)
    except WireFormatError as error:
        return "refused", str(error), decoder
    return "batch", batch, decoder


def _codec_verdict(protocol, data: bytes):
    try:
        return "batch", protocol.decode_reports(data, DATASET.domain)
    except WireFormatError as error:
        return "refused", str(error)


@pytest.mark.parametrize("name", ALL_PROTOCOLS)
def test_the_server_parse_reaches_the_codecs_verdict(name):
    protocol = build(name)
    frame = _valid_frame(protocol)
    verdicts = {"cut": 0, "waiting": 0, "refused": 0, "batch": 0}
    for data in [frame, *_damaged(frame, name)]:
        kind, server, decoder = _server_verdict(protocol, data)
        verdicts[kind] += 1
        codec, value = _codec_verdict(protocol, data)
        if kind == "refused":
            assert (codec, value) == ("refused", server)
        elif kind == "batch" and decoder.at_frame_boundary:
            assert codec == "batch"
            assert value.to_bytes() == server.to_bytes() == data
        else:
            # The decoder refused the stream in its own words (a magic or
            # a length cap), waits for bytes a damaged length promises,
            # or holds a whole frame and the start of another: the codec,
            # which sees only these bytes, refuses them.
            assert codec == "refused"
    # Every kind of verdict was reached, the payload checks included.
    assert all(verdicts.values()), verdicts


@pytest.mark.parametrize("name", ALL_PROTOCOLS)
def test_each_refused_frame_gets_err_and_the_server_keeps_serving(name):
    protocol = build(name)
    frame = _valid_frame(protocol)
    refused = []
    for data in _damaged(frame, name):
        kind, message, _ = _server_verdict(protocol, data)
        if kind in ("cut", "refused"):
            refused.append((data, message))

    async def session():
        server = CollectionServer(protocol.spec(), DATASET.domain, port=0)
        await server.start()
        answers = []
        try:
            for data, _ in refused:
                replies = await send_group(
                    server.port, protocol.spec(), DATASET.domain.attributes, [data]
                )
                answers.append(replies[-1])
            valid = await send_group(
                server.port,
                protocol.spec(),
                DATASET.domain.attributes,
                [frame],
                token="after-the-damage",
            )
        finally:
            await server.stop()
        return server, answers, valid

    server, answers, valid = asyncio.run(session())
    assert len(answers) == len(refused) > len(frame)
    for answer, (_, message) in zip(answers, refused):
        assert answer.kind == ERR
        assert answer.payload["error"] == message
    assert valid[-1].kind == ACK
    assert server.num_reports == DATASET.size


class _CountingStruct(struct.Struct):
    """A ``struct.Struct`` that counts its ``unpack_from`` calls."""

    calls = 0

    def unpack_from(self, *args, **kwargs):
        type(self).calls += 1
        return super().unpack_from(*args, **kwargs)


@pytest.mark.parametrize("name", ["InpRR", "InpOLH", "HH"])
def test_the_server_reads_each_report_header_once(name, monkeypatch):
    protocol = build(name)
    frames = encode_frames(protocol, small_dataset(n=96, d=4), 12)
    header_parses = []
    real_parse_header = wire._parse_frame_header

    def parse_header(*args, **kwargs):
        header_parses.append(args)
        return real_parse_header(*args, **kwargs)

    _CountingStruct.calls = 0
    prefix = _CountingStruct(wire.FRAME_PREFIX.format)
    monkeypatch.setattr(wire, "_parse_frame_header", parse_header)
    monkeypatch.setattr(wire, "_PREFIX", prefix)
    monkeypatch.setattr(framing, "_PREFIX", prefix)

    async def session():
        server = CollectionServer(protocol.spec(), DATASET.domain, port=0)
        await server.start()
        try:
            return await send_group(
                server.port, protocol.spec(), DATASET.domain.attributes, frames
            )
        finally:
            await server.stop()

    replies = asyncio.run(session())
    assert replies[-1].kind == ACK
    assert replies[-1].payload["frames"] == len(frames) == 8
    # One prefix read per frame, each a decoder's: the report frames, the
    # HELLO and FIN the server reads, and the OK and ACK the client reads.
    # The codec's header parser never ran.
    assert header_parses == []
    assert _CountingStruct.calls == len(frames) + 4
