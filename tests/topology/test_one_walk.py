"""One fan-in walk: the supervisor and a manifest reader agree.

``TopologySupervisor.collect``/``finalize`` and ``fan_in(manifest)`` run
the same walk, so:

1. a tree collected after ``shutdown()`` still yields every durably
   ACK'd report, read from the stopped collectors' disk state;
2. a dead collector whose durable state is corrupt gets the same coverage
   ledger, labelled ``quarantined``, whichever side finalizes it.
"""

from __future__ import annotations

import asyncio
import shutil

import numpy as np

from repro.core.domain import Domain
from repro.server.server import DURABLE_STATE_FILENAME
from repro.topology import fan_in
from repro.topology.aggregator import expected_by_collector

from ..chaos.injectors import corrupt_checkpoint_array
from ..service.util import (
    SEED,
    assert_estimates_equal,
    build,
    encode_frames,
    estimates_of,
    small_dataset,
)
from .harness import drive_fleet, flat_estimates, spawn_tree

BATCH = 8  # 96 records -> 12 frames


def test_collect_after_shutdown_returns_every_acked_report(tmp_path):
    protocol = build("InpPS")
    dataset = small_dataset()
    domain = Domain.binary(dataset.dimension)
    frames = encode_frames(protocol, dataset, BATCH)

    with spawn_tree(protocol, domain, tmp_path) as supervisor:
        report = asyncio.run(
            drive_fleet(supervisor, protocol, domain, frames, token_prefix="stop")
        )
        supervisor.shutdown()
        aggregator = asyncio.run(supervisor.collect())

    assert report.acked_reports == dataset.size
    assert aggregator.num_reports == dataset.size
    assert aggregator.collector_ids == ("c0", "c1", "c2")
    assert_estimates_equal(
        estimates_of(aggregator.merged_session().snapshot()),
        flat_estimates(protocol, dataset, BATCH),
    )


def test_quarantined_collector_has_one_ledger_on_both_paths(tmp_path):
    protocol = build("InpRR")
    dataset = small_dataset()
    domain = Domain.binary(dataset.dimension)
    frames = encode_frames(protocol, dataset, BATCH)
    saved = tmp_path / "saved"

    with spawn_tree(protocol, domain, tmp_path / "tree") as supervisor:
        report = asyncio.run(
            drive_fleet(
                supervisor, protocol, domain, frames, token_prefix="corrupt"
            )
        )
        victim = supervisor.handles[1]
        supervisor.kill(1)
        corrupt_checkpoint_array(
            victim.checkpoint_dir / DURABLE_STATE_FILENAME,
            rng=np.random.default_rng(SEED),
        )
        # Each reader quarantines the corrupt files it finds, so the second
        # reader gets a fresh copy of the same corrupt state.
        shutil.copytree(victim.checkpoint_dir, saved)
        manifest = {
            "spec": supervisor.spec.to_dict(),
            "attributes": list(domain.attributes),
            "collectors": supervisor.describe(),
        }
        gathered = fan_in(manifest, partial=True)
        from_manifest = gathered.aggregator.coverage_report(
            expected_by_collector(manifest["collectors"], report.acked_by_target),
            gathered.lost,
            gathered.statuses,
        ).to_dict()
        shutil.rmtree(victim.checkpoint_dir)
        shutil.copytree(saved, victim.checkpoint_dir)
        estimator = asyncio.run(
            supervisor.finalize(
                allow_partial=True, expected_by_address=report.acked_by_target
            )
        )

    from_supervisor = estimator.metadata["coverage"]
    assert from_supervisor == from_manifest
    entry = {
        row["collector_id"]: row for row in from_supervisor["collectors"]
    }[victim.collector_id]
    assert entry["status"] == "quarantined"
    assert entry["detail"].startswith("checkpoint quarantined")
    assert entry["received"] == 0
    assert entry["lost"] > 0
