"""One ingest path: every connection is a group committed at FIN.

An in-memory :class:`CollectionServer` follows the same lifecycle as a
durable one — frames fold into the connection's own group, and the group
reaches the shard only when its ``FIN`` commits it — so these tests pin the
three consequences: a connection that drops mid-group leaves nothing
behind, a replayed token is re-ACK'd instead of folded twice, and a bad
frame costs only the connection that sent it.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.server import ACK, ERR, OK, CollectionServer, LoadGenerator

from ..service.util import (
    SEED,
    assert_estimates_equal,
    build,
    encode_frames,
    estimates_of,
    small_dataset,
)
from .raw_client import send_group, wait_for

BATCH_SIZE = 16  # 96 records -> 6 frames


def test_dropped_connection_mid_group_folds_nothing():
    protocol = build("InpRR")
    dataset = small_dataset()
    frames = encode_frames(protocol, dataset, BATCH_SIZE)

    async def session():
        server = CollectionServer(protocol.spec(), dataset.domain, port=0)
        await server.start()
        # Complete frames, then the client vanishes without FIN.
        await send_group(
            server.port,
            protocol.spec(),
            dataset.domain.attributes,
            frames[:3],
            fin=False,
        )
        await wait_for(lambda: server.stats()["connections"]["dropped"] == 1)
        dropped = (server.num_reports, server.stats()["reports"])
        report = await LoadGenerator(
            protocol.spec(),
            dataset.domain,
            "127.0.0.1",
            server.port,
            frames=frames,
            num_clients=2,
        ).run()
        await server.stop()
        return server, report, dropped

    server, report, dropped = asyncio.run(session())
    assert dropped == (0, 0)
    assert report.acked_reports == dataset.size
    assert server.num_reports == dataset.size
    assert_estimates_equal(
        estimates_of(server.finalize()),
        estimates_of(
            protocol.run_streaming(
                dataset, rng=np.random.default_rng(SEED), batch_size=BATCH_SIZE
            )
        ),
    )


def test_replayed_token_on_in_memory_server_is_reacked_not_refolded():
    protocol = build("InpHT")
    dataset = small_dataset()
    frames = encode_frames(protocol, dataset, BATCH_SIZE)
    group = frames[:2]
    users = 2 * BATCH_SIZE

    async def session():
        server = CollectionServer(protocol.spec(), dataset.domain, port=0)
        await server.start()
        replies = []
        for _ in range(2):
            replies.append(
                await send_group(
                    server.port,
                    protocol.spec(),
                    dataset.domain.attributes,
                    group,
                    token="client-0/g0",
                )
            )
        await server.stop()
        return server, replies

    server, (first, second) = asyncio.run(session())
    assert [reply.kind for reply in first] == [OK, ACK]
    assert [reply.kind for reply in second] == [OK, ACK]
    assert "duplicate" not in first[1].payload
    assert second[1].payload == {**first[1].payload, "duplicate": True}
    assert first[1].payload["reports"] == users
    assert server.num_reports == users
    assert server.stats()["reports"] == users
    recorded = {"frames": 2, "reports": users, "bytes": sum(map(len, group))}
    assert server.acked_tokens == {"client-0/g0": recorded}


def test_bad_frame_rejects_only_its_own_connection():
    """Two connections share one shard; the one whose group holds a frame
    that does not fit the domain gets ERR and contributes nothing, not even
    its valid frames, while the other commits in full."""
    protocol = build("InpRR")
    dataset = small_dataset()
    frames = encode_frames(protocol, dataset, BATCH_SIZE)
    wrong_dimension = encode_frames(protocol, small_dataset(n=32, d=5), None)

    async def session():
        server = CollectionServer(protocol.spec(), dataset.domain, port=0)
        await server.start()
        spec, attributes = protocol.spec(), dataset.domain.attributes
        good, bad = await asyncio.gather(
            send_group(server.port, spec, attributes, frames),
            send_group(
                server.port, spec, attributes, [frames[0], wrong_dimension[0]]
            ),
        )
        await server.stop()
        return server, good, bad

    server, good, bad = asyncio.run(session())
    assert [reply.kind for reply in good] == [OK, ACK]
    assert good[1].payload["reports"] == dataset.size
    assert [reply.kind for reply in bad] == [OK, ERR]
    assert server.num_reports == dataset.size
    assert server.stats()["connections"]["rejected"] == 1
    assert_estimates_equal(
        estimates_of(server.finalize()),
        estimates_of(
            protocol.run_streaming(
                dataset, rng=np.random.default_rng(SEED), batch_size=BATCH_SIZE
            )
        ),
    )
