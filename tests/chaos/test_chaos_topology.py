"""End-to-end chaos: crashed clients, corrupted checkpoints, full disks.

The suite composes the :mod:`tests.chaos.injectors` with the
topology fault harness to prove the two headline resilience claims:

1. **Exactness survives a client crash.**  A client hard-stopped
   mid-run resumes from its durable spool under the same idempotency
   tokens, and the tree finalizes bit-for-bit identical to the
   uninterrupted ``run_streaming`` baseline — even when the crash tore
   the spool's final commit record.
2. **Loss is measured, never silent.**  When a collector dies *and* its
   durable checkpoint is corrupted, the quarantine path turns the gap
   into exact per-collector lost counts: strict finalize refuses, and
   degraded finalize attaches the CoverageReport.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.domain import Domain
from repro.core.exceptions import PartialCoverageError
from repro.resilience import ReportSpool
from repro.server.server import DURABLE_STATE_FILENAME
from repro.service import AggregationSession

from ..service.util import (
    assert_estimates_equal,
    build,
    encode_frames,
    estimates_of,
    small_dataset,
)
from ..topology.harness import (
    collect_with_pull_faults,
    drive_fleet,
    flat_estimates,
    spawn_tree,
)
from .injectors import (
    corrupt_checkpoint_array,
    enospc_on_fsync,
)

BATCH = 8  # 96 records -> 12 frames -> 12 groups for a single client

SEED = 20180608


class ClientCrash(Exception):
    """The injected client death (stands in for a SIGKILL'd process)."""


def test_spool_replay_after_client_crash_is_bit_for_bit(tmp_path):
    """Crash a client mid-run (tearing its last spool commit), rerun it
    with the same spool and tokens, and the tree still finalizes exactly."""
    protocol = build("InpPS")
    dataset = small_dataset()
    domain = Domain.binary(dataset.dimension)
    frames = encode_frames(protocol, dataset, BATCH)
    spool_dir = tmp_path / "spool"
    crash_after = 3  # groups 0..3 delivered+committed, then the client dies

    def crash(client_id: int, group_index: int) -> None:
        if group_index == crash_after:
            raise ClientCrash()

    async def scenario():
        with spawn_tree(protocol, domain, tmp_path / "tree") as supervisor:
            with pytest.raises(ClientCrash):
                await drive_fleet(
                    supervisor,
                    protocol,
                    domain,
                    frames,
                    token_prefix="crashy",
                    spool_dir=spool_dir,
                    on_group_done=crash,
                )
            # Tear the tail: the crash also mangled the final commit
            # record, so on recovery that group must count as *pending*
            # and be replayed under its original token (the collector
            # already folded it and simply re-ACKs the recorded counts).
            spool_path = spool_dir / "client-0000.spool"
            blob = bytearray(spool_path.read_bytes())
            blob[-1] ^= 0xFF
            spool_path.write_bytes(bytes(blob))

            report = await drive_fleet(
                supervisor,
                protocol,
                domain,
                frames,
                token_prefix="crashy",
                spool_dir=spool_dir,
            )
            aggregator = await collect_with_pull_faults(supervisor)
            return report, aggregator

    report, aggregator = asyncio.run(scenario())
    # Groups 0..2 replayed from their commits without touching the
    # network; group 3 (torn commit) was resent and deduped server-side.
    assert report.spool_replays == crash_after + 1
    assert report.acked_reports == dataset.size
    merged = aggregator.merged_session()
    assert merged.num_reports == dataset.size, (
        "a replayed group was double-folded or lost"
    )
    assert_estimates_equal(
        estimates_of(merged.snapshot()),
        flat_estimates(protocol, dataset, BATCH),
    )
    # The healed spool now shows every group committed.
    with ReportSpool(spool_dir / "client-0000.spool") as spool:
        assert spool.pending_groups() == {}
        assert len(spool.committed_groups()) == len(frames)


def test_quarantined_collector_becomes_exact_measured_loss(tmp_path):
    """Kill a collector AND corrupt its durable state mid-run: the
    supervisor quarantines the checkpoint, the in-flight group reroutes,
    and finalize turns the dead collector's ACK'd reports into exact lost
    counts — strict mode refusing, degraded mode attaching the ledger."""
    protocol = build("InpPS")
    dataset = small_dataset()
    domain = Domain.binary(dataset.dimension)
    frames = encode_frames(protocol, dataset, BATCH)
    victim_index = 1
    strike_after = 5  # enough groups round-robined onto the victim first

    async def scenario():
        with spawn_tree(protocol, domain, tmp_path) as supervisor:
            victim = supervisor.handles[victim_index]

            def strike(client_id: int, group_index: int) -> None:
                if group_index == strike_after:
                    supervisor.kill(victim_index)
                    corrupt_checkpoint_array(
                        victim.checkpoint_dir / DURABLE_STATE_FILENAME,
                        rng=np.random.default_rng(SEED),
                    )

            report = await drive_fleet(
                supervisor,
                protocol,
                domain,
                frames,
                token_prefix="quarantine",
                on_group_done=strike,
            )
            supervisor.health_check()
            lost = supervisor.lost_collectors()
            with pytest.raises(PartialCoverageError) as excinfo:
                await supervisor.finalize(
                    expected_by_address=report.acked_by_target
                )
            estimator = await supervisor.finalize(
                allow_partial=True,
                expected_by_address=report.acked_by_target,
            )
            return report, lost, excinfo.value, estimator, victim

    report, lost, strict_error, estimator, victim = asyncio.run(scenario())

    assert lost[victim.collector_id].startswith("checkpoint quarantined")
    quarantined = list(victim.checkpoint_dir.glob("state.npz.corrupt*"))
    assert any(not f.name.endswith(".txt") for f in quarantined)
    assert any(f.name.endswith(".report.txt") for f in quarantined)

    coverage = estimator.metadata["coverage"]
    victim_entry = {
        entry["collector_id"]: entry for entry in coverage["collectors"]
    }[victim.collector_id]
    victim_acked = report.acked_by_target[
        f"{victim.host}:{victim.port}"
    ]["reports"]
    assert victim_acked > 0, "the victim never acknowledged anything"
    # The exact-loss claim: lost == what clients saw the victim ACK,
    # minus nothing — and the grand total still accounts for every report.
    assert victim_entry["status"] == "quarantined"
    assert victim_entry["lost"] == victim_acked
    assert coverage["received"] + coverage["lost"] == dataset.size
    assert coverage["error_inflation"] == pytest.approx(
        float(np.sqrt(dataset.size / coverage["received"]))
    )
    assert strict_error.coverage.lost == coverage["lost"]


def test_full_disk_checkpoint_leaves_the_previous_one_intact(tmp_path):
    """ENOSPC at fsync time must abort the temp file, not the checkpoint."""
    protocol = build("InpRR")
    dataset = small_dataset()
    frames = encode_frames(protocol, dataset, 48)
    session = AggregationSession(protocol.spec(), dataset.domain)
    session.submit(frames[0])
    path = tmp_path / "state.npz"
    session.checkpoint(path)
    pristine = path.read_bytes()

    session.submit(frames[1])
    with enospc_on_fsync():
        with pytest.raises(OSError, match="No space left"):
            session.checkpoint(path)

    assert path.read_bytes() == pristine, "the full disk tore the file"
    assert list(tmp_path.glob("*.tmp")) == [], "temp file leaked"
    restored = AggregationSession.restore(path)
    assert restored.num_reports == 48


def test_flipped_durable_state_is_refused_on_recovery(tmp_path):
    """The cheap sanity pairing for the tree test above: a raw media flip
    in a durable state file is refused by restore (CRC or digest)."""
    protocol = build("MargRR")
    dataset = small_dataset()
    session = AggregationSession(protocol.spec(), dataset.domain)
    for frame in encode_frames(protocol, dataset, 48):
        session.submit(frame)
    path = tmp_path / DURABLE_STATE_FILENAME
    session.checkpoint(path)
    corrupt_checkpoint_array(path, rng=np.random.default_rng(SEED))
    from repro.core.exceptions import WireFormatError

    with pytest.raises(WireFormatError):
        AggregationSession.restore(path)
