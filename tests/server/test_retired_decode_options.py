"""Specs still carrying the retired OLH decode options are refused.

``decode_batch_size`` and ``kernel_backend`` were InpOLH and HH options
until the decode block and kernel became the machine's.  Whatever a peer
or the disk still carries them in, the unknown-option path refuses it
and names the key: a live collector answers such a HELLO with ERR and
keeps serving, and a durable collector quarantines a snapshot written
with them and starts empty instead of crashing.
"""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.core.exceptions import WireFormatError
from repro.server import (
    ACK,
    DURABLE_STATE_FILENAME,
    ERR,
    HELLO,
    CollectionServer,
    FrameDecoder,
    encode_control,
    restore_durable,
)
from repro.server.durable import CommitLog
from repro.service import AggregationSession

from ..service.util import (
    build,
    encode_frames,
    seal_checkpoint,
    small_dataset,
    split_checkpoint,
)
from .raw_client import send_group

RETIRED = [("decode_batch_size", 0), ("kernel_backend", "")]
PROTOCOLS = ["InpOLH", "HH"]
DATASET = small_dataset()


async def _hello_reply(port, payload):
    """The server's first reply to a bare HELLO."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(encode_control(HELLO, payload))
    await writer.drain()
    decoder = FrameDecoder()
    replies = []
    while not replies:
        chunk = await asyncio.wait_for(reader.read(1 << 16), 10.0)
        if not chunk:
            break
        replies.extend(decoder.feed(chunk))
    writer.close()
    return replies


@pytest.mark.parametrize("name", PROTOCOLS)
@pytest.mark.parametrize("key, value", RETIRED)
def test_a_live_server_errs_the_hello_then_acks_a_clean_group(
    name, key, value
):
    protocol = build(name)
    spec = protocol.spec()
    hostile = spec.canonical().to_dict()
    hostile["options"][key] = value
    frames = encode_frames(protocol, DATASET, 48)

    async def scenario():
        server = CollectionServer(spec, DATASET.domain, port=0)
        await server.start()
        try:
            refused = await _hello_reply(
                server.port,
                {"spec": hostile, "attributes": list(DATASET.domain.attributes)},
            )
            clean = await send_group(
                server.port, spec, DATASET.domain.attributes, frames
            )
        finally:
            await server.stop()
        return server, refused, clean

    server, refused, clean = asyncio.run(scenario())
    assert [reply.kind for reply in refused] == [ERR]
    assert key in str(refused[0].payload)
    assert clean[-1].kind == ACK
    assert server.num_reports == DATASET.size


def _parent_format_snapshot(name, directory, key, value):
    """A durable snapshot of one group whose spec spells out a retired
    option, as the earlier format's canonical specs did."""
    protocol = build(name)
    session = AggregationSession(protocol.spec(), DATASET.domain)
    for frame in encode_frames(protocol, DATASET, 48):
        session.submit(frame)
    log = CommitLog(directory)
    log.snapshot(session, {"acked_tokens": {}})
    log.close()
    path = directory / DURABLE_STATE_FILENAME
    blob = path.read_bytes()
    (version,) = struct.unpack_from("<H", blob, 4)
    header, state = split_checkpoint(blob)
    header["spec"]["options"][key] = value
    path.write_bytes(seal_checkpoint(header, state, version))
    return protocol


@pytest.mark.parametrize("name", PROTOCOLS)
@pytest.mark.parametrize("key, value", RETIRED)
def test_restore_durable_refuses_and_quarantines_the_snapshot(
    name, key, value, tmp_path
):
    _parent_format_snapshot(name, tmp_path, key, value)
    with pytest.raises(WireFormatError, match=key):
        restore_durable(tmp_path)
    assert not (tmp_path / DURABLE_STATE_FILENAME).exists()
    moved = sorted(path.name for path in tmp_path.iterdir())
    assert f"{DURABLE_STATE_FILENAME}.corrupt" in moved


@pytest.mark.parametrize("key, value", RETIRED)
def test_a_durable_server_starts_empty_over_the_snapshot(
    key, value, tmp_path
):
    protocol = _parent_format_snapshot("InpOLH", tmp_path, key, value)
    spec = protocol.spec()
    frames = encode_frames(protocol, DATASET, 48)

    async def scenario():
        server = CollectionServer(
            spec,
            DATASET.domain,
            port=0,
            checkpoint_dir=tmp_path,
        )
        await server.start()
        try:
            starting = server.num_reports
            replies = await send_group(
                server.port, spec, DATASET.domain.attributes, frames, token="g"
            )
        finally:
            await server.stop()
        return server, starting, replies

    server, starting, replies = asyncio.run(scenario())
    assert starting == 0
    assert replies[-1].kind == ACK
    assert server.num_reports == DATASET.size
    assert (tmp_path / f"{DURABLE_STATE_FILENAME}.corrupt").exists()
