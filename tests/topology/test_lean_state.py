"""The fan-in ``STATE`` answer carries only what the merge needs.

A state answer is the collector's session checkpoint as raw bytes after
a small JSON head — no acknowledged-token map, no base64 — so its size
does not grow with the number of groups the collector has acknowledged.
The token map stays on disk, where the failover oracle and
:func:`~repro.topology.fan_in`'s fallback read it through
:func:`~repro.server.restore_durable`; both still see it.  A healthy
:meth:`TopologySupervisor.collect` checks liveness on the event loop and
only hops to a thread when a collector died and needs recovering.
"""

from __future__ import annotations

import asyncio

from repro.core.domain import Domain
from repro.server import CollectionServer, restore_durable
from repro.topology import fan_in
from repro.topology.pull import pull_control, pull_state

from ..server.test_keepalive import Connection, group_bytes
from ..service.util import (
    assert_estimates_equal,
    build,
    encode_frames,
    estimates_of,
    small_dataset,
)
from .harness import drive_fleet, flat_estimates, spawn_tree

BATCH = 8  # 96 records -> 12 frames
GROUPS = 300


def test_state_answer_does_not_grow_with_acknowledged_groups(tmp_path):
    protocol = build("InpRR")
    dataset = small_dataset()
    frames = encode_frames(protocol, dataset, BATCH)

    async def session():
        server = CollectionServer(
            protocol.spec(),
            dataset.domain,
            port=0,
            checkpoint_dir=tmp_path,
            collector_id="c0",
        )
        await server.start()
        fresh = await pull_control("127.0.0.1", server.port, {"what": "state"})
        connection = await Connection.open(server.port)
        connection.writer.write(
            b"".join(
                group_bytes([frames[index % len(frames)]], token=f"t/g{index}")
                for index in range(GROUPS)
            )
        )
        replies = await connection.replies(2 * GROUPS)
        connection.close()
        after = await pull_control("127.0.0.1", server.port, {"what": "state"})
        pulled = await pull_state("127.0.0.1", server.port)
        tokens = dict(server.acked_tokens)
        await server.stop()
        return fresh, after, pulled, tokens, replies

    fresh, after, pulled, tokens, replies = asyncio.run(session())
    assert [reply.kind for reply in replies] == ["OK", "ACK"] * GROUPS
    assert len(tokens) == GROUPS
    # Only the session counters' digits may differ; the map would add
    # about 50 bytes per group.
    assert abs(len(after.raw) - len(fresh.raw)) <= 32
    assert after.payload == {
        "collector_id": "c0",
        "what": "state",
        "reports": GROUPS * BATCH,
    }
    # A live pull holds no token map, in the PulledState or the checkpoint.
    assert pulled.acked_tokens == {}
    assert pulled.session.checkpoint_extra == {"collector_id": "c0"}
    assert pulled.num_reports == GROUPS * BATCH
    # The durable state keeps the whole map for restart dedupe.
    on_disk = restore_durable(tmp_path, quarantine=False)
    assert on_disk.checkpoint_extra["acked_tokens"] == tokens


def test_healthy_collect_stays_on_the_loop_and_a_death_recovers_tokens(tmp_path):
    protocol = build("InpPS")
    dataset = small_dataset()
    domain = Domain.binary(dataset.dimension)
    frames = encode_frames(protocol, dataset, BATCH)

    async def scenario():
        with spawn_tree(protocol, domain, tmp_path, collectors=2) as supervisor:
            checks = []
            health_check = supervisor.health_check

            def counted():
                checks.append(1)
                return health_check()

            supervisor.health_check = counted
            await drive_fleet(
                supervisor, protocol, domain, frames, token_prefix="lean"
            )
            healthy = await supervisor.collect()
            checks_healthy = len(checks)
            supervisor.kill(1)
            recovered = await supervisor.collect()
            checks_after_kill = len(checks)
            await supervisor.collect()
            return (
                healthy,
                recovered,
                checks_healthy,
                checks_after_kill,
                len(checks),
                supervisor.recovered_tokens(),
            )

    healthy, recovered, healthy_checks, kill_checks, later_checks, tokens = (
        asyncio.run(scenario())
    )
    assert healthy_checks == 0, "a healthy collect hopped to a thread"
    assert kill_checks == 1
    assert later_checks == 1, "a recovered death is not re-checked"
    assert healthy.acked_tokens() == {}
    # Round-robin sent every other one-frame group to the dead collector,
    # and its recovered state still names every one of them.
    victim_tokens = {f"lean/c0/g{index}" for index in range(1, len(frames), 2)}
    assert set(tokens) == victim_tokens
    assert set(recovered.acked_tokens()) == victim_tokens
    assert_estimates_equal(
        estimates_of(recovered.merged_session().snapshot()),
        flat_estimates(protocol, dataset, BATCH),
    )


def test_fan_in_fallback_reads_tokens_from_disk(tmp_path):
    protocol = build("InpPS")
    dataset = small_dataset()
    domain = Domain.binary(dataset.dimension)
    frames = encode_frames(protocol, dataset, BATCH)

    with spawn_tree(protocol, domain, tmp_path, collectors=2) as supervisor:
        asyncio.run(
            drive_fleet(supervisor, protocol, domain, frames, token_prefix="lean")
        )
        supervisor.kill(1)
        manifest = {
            "spec": supervisor.spec.to_dict(),
            "attributes": list(domain.attributes),
            "collectors": supervisor.describe(),
        }
        gathered = fan_in(manifest)

    assert gathered.unreachable == ["c1"]
    assert set(gathered.aggregator.acked_tokens()) == {
        f"lean/c0/g{index}" for index in range(1, len(frames), 2)
    }
    assert_estimates_equal(
        estimates_of(gathered.aggregator.merged_session().snapshot()),
        flat_estimates(protocol, dataset, BATCH),
    )
