"""Heavy-hitter discovery under faults.

Two satellite bars from the issue:

* the discovered top-k is **bit-for-bit identical** through a mid-stream
  collector SIGKILL (failover + durable-checkpoint recovery), compared
  against the flat ``run_streaming`` ground truth;
* a flipped byte in a *per-level* checkpoint array (``levelNN__*``) is
  detected at restore and the damaged checkpoint is quarantined, never
  silently folded into a discovery.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.domain import Domain
from repro.core.exceptions import CheckpointIntegrityError
from repro.resilience.integrity import quarantine_checkpoint
from repro.service import AggregationSession
from repro.service.session import parse_checkpoint

from ..chaos.injectors import corrupt_checkpoint_array
from ..service.util import (
    SEED,
    assert_estimates_equal,
    build,
    encode_frames,
    estimates_of,
    small_dataset,
)
from ..topology.harness import (
    KillPlan,
    collect_with_pull_faults,
    drive_fleet,
    flat_estimates,
    spawn_tree,
)

BATCH = 8  # 96 records -> 12 frames -> 12 single-frame groups


@pytest.fixture(scope="module")
def dataset():
    return small_dataset()


def hh_protocol():
    return build("HH")


class TestTopologyKill:
    def test_top_k_identical_through_collector_sigkill(
        self, dataset, tmp_path
    ):
        """Kill collector 1 mid-stream; the fan-in's DiscoveryResult must
        equal the flat streaming run field for field, bit for bit."""
        protocol = hh_protocol()
        domain = Domain.binary(dataset.dimension)
        frames = encode_frames(protocol, dataset, BATCH)
        assert len(frames) == 12

        async def scenario():
            with spawn_tree(protocol, domain, tmp_path) as supervisor:
                report = await drive_fleet(
                    supervisor,
                    protocol,
                    domain,
                    frames,
                    kill=KillPlan(
                        collector_index=1, client_id=0, group_index=1
                    ),
                )
                aggregator = await collect_with_pull_faults(supervisor)
                return report, aggregator

        report, aggregator = asyncio.run(scenario())
        assert report.acked_reports == dataset.size
        assert report.retries > 0, "no group ever hit the dead collector"
        assert "c1" in aggregator.collector_ids

        merged = aggregator.merged_session()
        assert merged.num_reports == dataset.size
        flat = protocol.run_streaming(
            dataset, np.random.default_rng(SEED), batch_size=BATCH
        )
        assert (
            merged.snapshot().discover().to_dict()
            == flat.discover().to_dict()
        )
        # Discovery equality must not come at the marginals' expense: the
        # generic ground truth the other suites use still holds too.
        assert_estimates_equal(
            estimates_of(merged.snapshot()),
            flat_estimates(protocol, dataset, BATCH),
        )


class TestPerLevelBitFlip:
    def test_flipped_level_array_is_detected_and_quarantined(
        self, dataset, tmp_path
    ):
        """Corrupt one byte in every per-level state array in turn."""
        protocol = hh_protocol()
        session = AggregationSession(
            protocol.spec(), Domain.binary(dataset.dimension)
        )
        for frame in encode_frames(protocol, dataset, 48):
            session.submit(frame)
        path = tmp_path / "hh-checkpoint.npz"
        session.checkpoint(path)
        pristine = path.read_bytes()
        _, state = parse_checkpoint(pristine)
        level_arrays = [name for name in state if name.startswith("level")]
        # One namespaced array per level at least (HH over d=4, fanout=2
        # has levels 00 and 01).
        assert any("level00__" in name for name in level_arrays)
        assert any("level01__" in name for name in level_arrays)
        rng = np.random.default_rng(20260808)
        for array_name in level_arrays:
            path.write_bytes(pristine)
            corrupt_checkpoint_array(path, array_name, rng)
            with pytest.raises(
                CheckpointIntegrityError, match="failed integrity"
            ):
                AggregationSession.restore(path)
            quarantined, report = quarantine_checkpoint(
                path, f"hh chaos test flipped a byte in {array_name}"
            )
            assert quarantined is not None and quarantined.exists()
            assert array_name in report.read_text()
