"""One round trip per group: the pipelined open and the handshake cache.

A :class:`LoadGenerator` waits for ``OK`` only on its first group to an
address and on the first group after a failure there; every other group
sends ``HELLO``, frames and ``FIN`` in one go.  A spec mismatch met by a
pipelined group therefore still ends in the readable ``ERR`` diff.  On the
server, a ``HELLO`` that repeats the last accepted spec, hash and
attributes exactly skips the canonical spec check, but its token is still
checked.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

import repro.server.server as server_module
from repro.core.exceptions import CollectionServiceError
from repro.resilience import RetryPolicy
from repro.server import ACK, ERR, OK, CollectionServer, LoadGenerator
from repro.server.framing import HELLO, encode_control
from repro.server.handshake import hello_payload

from ..service.util import (
    SEED,
    assert_estimates_equal,
    build,
    encode_frames,
    estimates_of,
    small_dataset,
)
from .raw_client import send_group

BATCH_SIZE = 16  # 96 records -> 6 frames


@pytest.fixture
def handshakes(monkeypatch):
    """Count the groups that waited for ``OK`` before sending frames."""
    calls = []
    original = LoadGenerator._handshake

    async def counting(writer, channel, hello):
        calls.append(hello)
        await original(writer, channel, hello)

    monkeypatch.setattr(LoadGenerator, "_handshake", staticmethod(counting))
    return calls


def test_only_the_first_group_to_an_address_waits_for_ok(handshakes):
    protocol = build("InpRR")
    dataset = small_dataset()
    frames = encode_frames(protocol, dataset, BATCH_SIZE)

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
            frames_per_connection=1,
            token_prefix="pipe",
        ).run()
        await server.stop()
        return server, report

    server, report = asyncio.run(session())
    assert len(handshakes) == 1
    # One group per frame, all over one kept-alive connection.
    (target,) = report.acked_by_target.values()
    assert target["groups"] == len(frames)
    assert report.connections == 1
    assert report.acked_reports == dataset.size
    stats = server.stats()
    assert stats["groups"] == {"committed": len(frames), "duplicate": 0}
    assert stats["connections"]["total"] == 1
    assert stats["connections"]["completed"] == 1
    assert_estimates_equal(
        estimates_of(server.finalize()),
        estimates_of(
            protocol.run_streaming(
                dataset, rng=np.random.default_rng(SEED), batch_size=BATCH_SIZE
            )
        ),
    )


def test_a_spec_change_behind_a_pipelined_address_earns_the_readable_diff(
    handshakes,
):
    """After two groups, the collector is replaced by one with another
    epsilon on the same port.  The pipelined third group fails; its retry
    waits for the answer to HELLO and surfaces the spec diff."""
    protocol = build("InpRR")
    dataset = small_dataset()
    frames = encode_frames(protocol, dataset, BATCH_SIZE)
    other = build("InpRR", epsilon=1.0)
    assert other.spec() != protocol.spec()

    async def session():
        servers = [CollectionServer(protocol.spec(), dataset.domain, port=0)]
        await servers[0].start()
        port = servers[0].port

        async def swap(client_id, group_index):
            if group_index == 1:
                await servers[0].stop()
                servers.append(
                    CollectionServer(other.spec(), dataset.domain, port=port)
                )
                await servers[1].start()

        fleet = LoadGenerator(
            protocol.spec(),
            dataset.domain,
            "127.0.0.1",
            port,
            frames=frames,
            num_clients=1,
            frames_per_connection=1,
            token_prefix="swap",
            retry=RetryPolicy(max_retries=1, base_delay=0.0),
            on_group_done=swap,
        )
        try:
            with pytest.raises(CollectionServiceError) as excinfo:
                await fleet.run()
        finally:
            await servers[-1].stop()
        return excinfo.value, servers[-1]

    error, replacement = asyncio.run(session())
    assert "rejected the HELLO handshake" in str(error)
    assert "epsilon" in str(error)
    # Group 0 waited; group 1 and the first try of group 2 were pipelined;
    # the retry of group 2 waited again.
    assert len(handshakes) == 2
    assert replacement.num_reports == 0


def test_an_exact_repeat_skips_the_spec_check_but_not_the_token(monkeypatch):
    protocol = build("InpRR")
    dataset = small_dataset()
    frames = encode_frames(protocol, dataset, BATCH_SIZE)
    checks = []
    original = server_module.check_hello

    def counting(*args):
        checks.append(args[0])
        return original(*args)

    monkeypatch.setattr(server_module, "check_hello", counting)
    mismatched = build("InpRR", epsilon=1.0).spec()

    async def raw_hello(port, payload):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(encode_control(HELLO, payload))
        await writer.drain()
        chunk = await asyncio.wait_for(reader.read(1 << 16), 10.0)
        writer.close()
        return chunk

    async def session():
        server = CollectionServer(protocol.spec(), dataset.domain, port=0)
        await server.start()
        replies = []
        for index in range(3):
            replies.append(
                await send_group(
                    server.port,
                    protocol.spec(),
                    dataset.domain.attributes,
                    [frames[index]],
                    token=f"g{index}",
                )
            )
        bad_token = {
            **hello_payload(protocol.spec(), dataset.domain.attributes),
            "token": 7,
        }
        replies.append(
            await send_group(
                server.port, mismatched, dataset.domain.attributes, [frames[3]]
            )
        )
        rejected = await raw_hello(server.port, bad_token)
        await server.stop()
        return server, replies, rejected

    server, replies, rejected = asyncio.run(session())
    assert [[reply.kind for reply in group] for group in replies[:3]] == [
        [OK, ACK]
    ] * 3
    assert replies[3][0].kind == ERR
    assert any("epsilon" in line for line in replies[3][0].payload["diff"])
    assert b"token: must be a string" in rejected
    # The first HELLO and the mismatched one ran the full check; the two
    # repeats and the bad token did not.
    assert len(checks) == 2
    assert server.num_reports == 3 * BATCH_SIZE
