"""A value error in a later frame of a group earns ERR at its block's fold.

A collector parses each report frame on arrival (header, CRC, layout) and
unpacks a group's pending frames as one block when it folds them.  The
value checks — the spec's bounds, canonical widths, padding bits — run at
that fold, so an out-of-spec value or a non-canonical width in frame
``k > 1`` of a group is refused at the latest at ``FIN``: the connection
gets ``ERR``, never ``ACK``, and nothing of the group reaches the shard or
the commit log.
"""

from __future__ import annotations

import asyncio
import dataclasses
import re

import pytest

from repro.server import ACK, ERR, OK, CollectionServer, restore_durable

from ..oracles import decode_rows_reference
from ..service.util import (
    build,
    encode_frames,
    forge_frame,
    payload_body,
    small_dataset,
)
from .raw_client import send_group

BATCH_SIZE = 12  # 96 records -> 8 frames


def _out_of_spec_frame(protocol, frame, dimension):
    """``frame`` with one bucket at g: well formed, outside the spec."""
    reports = protocol.decode_reports(frame)
    buckets = reports.noisy_buckets.copy()
    buckets[-1] = protocol.oracle(dimension).num_buckets
    return dataclasses.replace(reports, noisy_buckets=buckets).to_bytes()


def _widened_frame(frame):
    """``frame`` with its bucket column packed one bit wider than its
    largest value needs: well formed but not canonical."""
    body = payload_body(frame)
    columns = decode_rows_reference("InpOLH", body)
    seeds, buckets = columns["seeds"], columns["noisy_buckets"]
    table_at = len(body) - len(seeds) * 8 - 2
    seed_bits, bucket_bits = body[table_at], body[table_at + 1] + 1
    stride = -(-(seed_bits + bucket_bits) // 8)
    rows = b"".join(
        (int(seed) | int(bucket) << seed_bits).to_bytes(stride, "little")
        for seed, bucket in zip(seeds, buckets)
    )
    table = bytes([seed_bits, bucket_bits])
    return forge_frame("InpOLH", body[:table_at] + table + rows)


@pytest.mark.parametrize("fault", ["out_of_spec", "non_canonical"])
@pytest.mark.parametrize("durable", [False, True])
def test_bad_later_frame_gets_err_and_commits_nothing(fault, durable, tmp_path):
    protocol = build("InpOLH")
    dataset = small_dataset()
    frames = encode_frames(protocol, dataset, BATCH_SIZE)
    if fault == "out_of_spec":
        bad = _out_of_spec_frame(protocol, frames[2], dataset.domain.dimension)
        reason = r"noisy_buckets.*outside the bound"
    else:
        bad = _widened_frame(frames[2])
        reason = "packs column 1 at"
    protocol.parse_report_frame(bad, dataset.domain)  # structurally valid
    group = frames[:2] + [bad] + frames[3:5]
    checkpoint_dir = tmp_path / "state" if durable else None

    async def session():
        server = CollectionServer(
            protocol.spec(), dataset.domain, port=0, checkpoint_dir=checkpoint_dir
        )
        await server.start()
        replies = await send_group(
            server.port, protocol.spec(), dataset.domain.attributes, group, token="g"
        )
        # The collector keeps serving: a clean group right after commits.
        clean = await send_group(
            server.port, protocol.spec(), dataset.domain.attributes, frames[5:]
        )
        await server.stop()
        return server, replies, clean

    server, replies, clean = asyncio.run(session())
    kinds = [reply.kind for reply in replies]
    assert kinds[0] == OK and ACK not in kinds
    (error,) = [reply for reply in replies if reply.kind == ERR]
    assert error.payload["error"]
    assert re.search(reason, error.payload["error"])
    assert clean[-1].kind == ACK
    clean_users = sum(protocol.decode_reports(frame).num_users for frame in frames[5:])
    assert server.num_reports == clean_users
    assert "g" not in server.acked_tokens
    if durable:
        restored = restore_durable(checkpoint_dir)
        assert restored.num_reports == clean_users
        assert "g" not in restored.checkpoint_extra["acked_tokens"]
