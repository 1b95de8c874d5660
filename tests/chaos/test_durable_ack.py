"""A durable ACK must mean "on disk", even for a replayed token.

A group whose commit merged in memory but whose commit-log append hit a
full disk was never acknowledged.  When the client retries it, the server
must not re-ACK the recorded token from memory: it may only answer once a
write that covers the token has succeeded, or a crash right after the ACK
would lose an acknowledged group.
"""

from __future__ import annotations

import asyncio
import socket

from repro.server import ACK, OK, CollectionServer, restore_durable

from ..server.raw_client import send_group
from ..service.util import build, encode_frames, small_dataset
from .injectors import enospc_on_fsync

BATCH = 32  # 96 records -> 3 frames of 32 reports


def test_replay_after_a_failed_durable_write_is_acked_only_once_on_disk(tmp_path):
    protocol = build("InpRR")
    dataset = small_dataset()
    frames = encode_frames(protocol, dataset, BATCH)

    async def scenario():
        server = CollectionServer(
            protocol.spec(),
            dataset.domain,
            port=0,
            checkpoint_dir=tmp_path,
        )
        await server.start()

        async def group(token, frame):
            return await send_group(
                server.port,
                protocol.spec(),
                dataset.domain.attributes,
                [frame],
                token=token,
            )

        outcomes = {"g0": await group("g0", frames[0])}
        with enospc_on_fsync():
            outcomes["g1 on a full disk"] = await group("g1", frames[1])
            outcomes["g1 retried, disk still full"] = await group("g1", frames[1])
            on_disk = restore_durable(tmp_path)
            held_while_full = (
                on_disk.num_reports,
                sorted(on_disk.checkpoint_extra["acked_tokens"]),
            )
        outcomes["g1 retried"] = await group("g1", frames[1])
        in_memory = server.num_reports
        await server.stop()
        return outcomes, held_while_full, in_memory

    outcomes, held_while_full, in_memory = asyncio.run(scenario())
    kinds = {name: [reply.kind for reply in replies] for name, replies in outcomes.items()}
    assert kinds == {
        "g0": [OK, ACK],
        "g1 on a full disk": [OK],
        "g1 retried, disk still full": [OK],
        "g1 retried": [OK, ACK],
    }
    assert held_while_full == (BATCH, ["g0"])
    assert outcomes["g1 retried"][1].payload == {
        "frames": 1,
        "reports": BATCH,
        "bytes": len(frames[1]),
        "duplicate": True,
    }
    # Folded once in memory, and the ACK'd state is on disk.
    assert in_memory == 2 * BATCH
    on_disk = restore_durable(tmp_path)
    assert on_disk.num_reports == 2 * BATCH
    assert sorted(on_disk.checkpoint_extra["acked_tokens"]) == ["g0", "g1"]


def test_stop_finishes_when_the_final_snapshot_hits_a_full_disk(tmp_path):
    """A failed shutdown snapshot loses nothing (every ACK'd group is in
    the commit log), so ``stop()`` logs it and still shuts down: the log
    is closed, the scrape port released, and the server can start again."""
    protocol = build("InpRR")
    dataset = small_dataset()
    frames = encode_frames(protocol, dataset, BATCH)

    async def scenario():
        server = CollectionServer(
            protocol.spec(),
            dataset.domain,
            port=0,
            checkpoint_dir=tmp_path,
            metrics_port=0,
        )
        await server.start()
        metrics_port = server.metrics_port

        async def group(token, frame):
            replies = await send_group(
                server.port,
                protocol.spec(),
                dataset.domain.attributes,
                [frame],
                token=token,
            )
            return [reply.kind for reply in replies]

        kinds = [await group("g0", frames[0])]
        with enospc_on_fsync():
            await server.stop()
        log_closed = server._log._handle is None
        with socket.socket() as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind(("127.0.0.1", metrics_port))
        released = server.metrics_port is None
        await server.start()
        kinds.append(await group("g1", frames[1]))
        await server.stop()
        return kinds, log_closed, released

    kinds, log_closed, released = asyncio.run(scenario())
    assert kinds == [[OK, ACK], [OK, ACK]]
    assert log_closed and released
    on_disk = restore_durable(tmp_path)
    assert on_disk.num_reports == 2 * BATCH
    assert sorted(on_disk.checkpoint_extra["acked_tokens"]) == ["g0", "g1"]
