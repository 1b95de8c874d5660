"""A raw asyncio client for driving one collector connection by hand."""

from __future__ import annotations

import asyncio

from repro.server import (
    ACK,
    ERR,
    FIN,
    HELLO,
    FrameDecoder,
    encode_control,
    hello_payload,
)


async def send_group(port, spec, attributes, frames, *, token=None, fin=True):
    """One raw connection: HELLO, the frames, optionally FIN; then read
    replies until the group's ACK or an ERR (the server keeps a connection
    open after an ACK, waiting for the next group), or until it closes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(encode_control(HELLO, hello_payload(spec, attributes, token=token)))
    writer.write(b"".join(frames))
    if fin:
        writer.write(encode_control(FIN))
    await writer.drain()
    if not fin:
        writer.close()
        return []
    decoder = FrameDecoder()
    replies = []
    while not any(reply.kind in (ACK, ERR) for reply in replies):
        chunk = await asyncio.wait_for(reader.read(1 << 16), 10.0)
        if not chunk:
            break
        replies.extend(decoder.feed(chunk))
    writer.close()
    return replies


async def wait_for(predicate, timeout=10.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.01)
