"""Satellite: SIGKILL between periodic checkpoints, restart, re-merge.

The durable-ACK discipline writes ``state.npz`` *before* every ACK, so a
collector killed at an arbitrary moment — including between two periodic
checkpoint sweeps — can always be restarted from a state that covers every
report any client was told is safe.  The regression asserts three things:

1. the restarted collector resumes on the *same* port (manifest/router
   addresses stay valid) and from its pre-crash durable state,
2. no acknowledged report is lost and none is double-counted once the
   supervisor pops its recovered snapshot in favour of the live restart,
3. the finalized tree is bit-for-bit identical to ``run_streaming`` over
   the full frame sequence.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.domain import Domain

from ..service.util import (
    assert_estimates_equal,
    build,
    encode_frames,
    estimates_of,
    small_dataset,
)
from .harness import collect_with_pull_faults, drive_fleet, flat_estimates, spawn_tree

BATCH = 8  # 96 records -> 12 frames

#: One per estimator family — each full scenario costs two fleet phases
#: and four process spawns, so the nine-way sweep lives in the
#: fault-injection suite instead.
PROTOCOLS = ["InpPS", "MargHT", "InpOLH"]


@pytest.mark.parametrize("protocol_name", PROTOCOLS)
def test_kill_restart_remerge_loses_nothing(protocol_name, tmp_path):
    protocol = build(protocol_name)
    dataset = small_dataset()
    domain = Domain.binary(dataset.dimension)
    frames = encode_frames(protocol, dataset, BATCH)

    async def scenario():
        with spawn_tree(protocol, domain, tmp_path) as supervisor:
            victim = supervisor.handles[1]
            port_before = None

            # Phase one: half the stream, everything healthy.
            first = await drive_fleet(
                supervisor,
                protocol,
                domain,
                frames[:6],
                token_prefix="phase1",
            )
            port_before = victim.port

            # Crash between checkpoint sweeps, recover, restart.
            supervisor.kill(1)
            supervisor.health_check()
            assert victim.status == "dead"
            recovered = supervisor.recovered_states()[victim.collector_id]
            assert recovered.num_reports > 0, (
                "phase one never acknowledged anything on the victim"
            )
            supervisor.restart(1)
            assert victim.status == "live"
            assert victim.port == port_before, "restart moved the collector"
            # The live restart supersedes the recovered snapshot — keeping
            # both would double-count the victim's phase-one groups.
            assert supervisor.recovered_states() == {}

            # Phase two: the rest of the stream over the healed tree.
            second = await drive_fleet(
                supervisor,
                protocol,
                domain,
                frames[6:],
                token_prefix="phase2",
            )
            aggregator = await collect_with_pull_faults(supervisor)
            return first, second, aggregator

    first, second, aggregator = asyncio.run(scenario())

    # No acknowledged report lost, none double-counted.
    assert first.acked_reports + second.acked_reports == dataset.size
    assert sorted(aggregator.collector_ids) == ["c0", "c1", "c2"]
    merged = aggregator.merged_session()
    assert merged.num_reports == dataset.size

    # Estimates exact against the flat streaming baseline.
    assert_estimates_equal(
        estimates_of(merged.snapshot()),
        flat_estimates(protocol, dataset, BATCH),
    )


def test_restarted_collector_reacks_replayed_tokens(tmp_path):
    """A client replaying an already-ACK'd token to the restarted process
    gets an idempotent duplicate ACK — the group is not re-folded."""
    protocol = build("InpPS")
    dataset = small_dataset()
    domain = Domain.binary(dataset.dimension)
    frames = encode_frames(protocol, dataset, BATCH)

    async def scenario():
        with spawn_tree(protocol, domain, tmp_path, collectors=1) as supervisor:
            await drive_fleet(
                supervisor, protocol, domain, frames, token_prefix="once"
            )
            supervisor.kill(0)
            supervisor.health_check()
            supervisor.restart(0)
            # Replay the exact same token-carrying stream.
            replay = await drive_fleet(
                supervisor, protocol, domain, frames, token_prefix="once"
            )
            aggregator = await collect_with_pull_faults(supervisor)
            return replay, aggregator

    replay, aggregator = asyncio.run(scenario())
    # Every replayed group was acknowledged (with its recorded counts) …
    assert replay.acked_reports == dataset.size
    # … but folded exactly once.
    merged = aggregator.merged_session()
    assert merged.num_reports == dataset.size
    assert_estimates_equal(
        estimates_of(merged.snapshot()),
        flat_estimates(protocol, dataset, BATCH),
    )


def test_kill_restart_under_a_kept_alive_connection_delivers_once(tmp_path):
    """The client holds a kept-alive connection to c0 when c0 is SIGKILLed
    and restarted between two of its groups.  The next group to c0 finds
    that connection at EOF, reconnects to the restarted collector and is
    delivered exactly once."""
    protocol = build("InpPS")
    dataset = small_dataset()
    domain = Domain.binary(dataset.dimension)
    frames = encode_frames(protocol, dataset, BATCH)

    async def scenario():
        with spawn_tree(protocol, domain, tmp_path) as supervisor:

            def kill_and_restart(client_id, group_index):
                if group_index == 0:  # c0 has just ACK'd group 0
                    supervisor.kill(0)
                    supervisor.health_check()
                    supervisor.restart(0)

            report = await drive_fleet(
                supervisor,
                protocol,
                domain,
                frames,
                token_prefix="keep",
                on_group_done=kill_and_restart,
            )
            aggregator = await collect_with_pull_faults(supervisor)
            return report, aggregator

    report, aggregator = asyncio.run(scenario())
    # One connection per collector, plus the reconnect to the restart:
    # the dead connection was dropped before reuse, not found out by a
    # failed group.
    assert report.connections == 4
    assert report.retries == 0
    assert report.recovered_groups == 0
    assert report.acked_reports == dataset.size
    assert sorted(aggregator.collector_ids) == ["c0", "c1", "c2"]
    merged = aggregator.merged_session()
    assert merged.num_reports == dataset.size
    assert_estimates_equal(
        estimates_of(merged.snapshot()),
        flat_estimates(protocol, dataset, BATCH),
    )
