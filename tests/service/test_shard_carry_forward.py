"""Per-shard checkpoints (``shard-NN.npz``) carry forward one file at a time.

Collectors used to dump each shard session to ``shard-NN.npz``.  Such a
file is a plain session checkpoint, so it restores through
:meth:`AggregationSession.restore` (or ``repro aggregate --restore``), and
the restored shards merge back to the exact aggregate of every frame.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import CheckpointIntegrityError
from repro.resilience.integrity import quarantine_checkpoint
from repro.service import AggregationSession

from ..chaos.injectors import corrupt_checkpoint_array
from .util import (
    assert_estimates_equal,
    build,
    encode_frames,
    estimates_of,
    small_dataset,
)

NUM_SHARDS = 3


@pytest.fixture(scope="module")
def setting():
    protocol = build("InpPS")
    dataset = small_dataset()
    return protocol, dataset, encode_frames(protocol, dataset, batch_size=12)


def _write_shards(setting, directory):
    """Deal the frames round-robin to shard sessions and checkpoint each
    to ``shard-NN.npz``, the way the per-shard dump named them; returns
    one session holding every frame."""
    protocol, dataset, frames = setting
    flat = AggregationSession(protocol.spec(), dataset.domain)
    for shard in range(NUM_SHARDS):
        session = AggregationSession(protocol.spec(), dataset.domain)
        for frame in frames[shard::NUM_SHARDS]:
            session.submit(frame)
            flat.submit(frame)
        session.checkpoint(directory / f"shard-{shard:02d}.npz")
    return flat


def _carry_forward(paths) -> AggregationSession:
    paths = list(paths)
    merged = AggregationSession.restore(paths[0])
    for path in paths[1:]:
        merged.merge(AggregationSession.restore(path))
    return merged


def test_each_shard_restores_and_their_merge_is_exact(setting, tmp_path):
    flat = _write_shards(setting, tmp_path)
    merged = _carry_forward(sorted(tmp_path.glob("shard-*.npz")))
    assert merged.num_reports == flat.num_reports
    assert merged.metadata == flat.metadata
    assert_estimates_equal(
        estimates_of(merged.snapshot()), estimates_of(flat.snapshot())
    )


def test_the_merge_does_not_depend_on_the_order(setting, tmp_path):
    _write_shards(setting, tmp_path)
    paths = sorted(tmp_path.glob("shard-*.npz"))
    forward = _carry_forward(paths)
    backward = _carry_forward(reversed(paths))
    assert backward.num_reports == forward.num_reports
    assert_estimates_equal(
        estimates_of(backward.snapshot()), estimates_of(forward.snapshot())
    )


def test_a_corrupt_shard_fails_by_name_and_the_rest_still_carry_forward(
    setting, tmp_path
):
    protocol, dataset, frames = setting
    _write_shards(setting, tmp_path)
    bad = tmp_path / "shard-01.npz"
    corrupt_checkpoint_array(bad, rng=np.random.default_rng(5))
    with pytest.raises(CheckpointIntegrityError) as excinfo:
        AggregationSession.restore(bad)
    assert str(bad) in str(excinfo.value)
    moved, report = quarantine_checkpoint(bad, str(excinfo.value))
    assert moved.exists() and report.exists() and not bad.exists()

    merged = _carry_forward(sorted(tmp_path.glob("shard-*.npz")))
    survivors = AggregationSession(protocol.spec(), dataset.domain)
    for shard in (0, 2):
        for frame in frames[shard::NUM_SHARDS]:
            survivors.submit(frame)
    assert merged.num_reports == survivors.num_reports
    assert_estimates_equal(
        estimates_of(merged.snapshot()), estimates_of(survivors.snapshot())
    )
