"""Serialized report sizes must track the paper's Table 2 communication.

Table 2 counts the *information-theoretic* bits each user sends (a marginal
index in ``ceil(log2 C(d,k))`` bits, a noisy value in 1 bit, ...).  Wire
format v3 packs every per-user column at the bit length of its largest
value (a ±1 sign in one bit) and pads each user's row to whole bytes, so
the measured per-user payload sits within a byte of Table 2:

* at d = 8, k = 2 with 500-user frames, InpPS, InpHT, MargRR, MargPS and
  MargHT each cost at most Table 2 + 8 bits per user, the frame header
  and CRC-32 amortised over the frame, and InpOLH at most its 64-bit
  hash seed plus 8 bits;
* across every protocol, the cost stays within a factor 64 of Table 2
  either way (InpRR ships ``2^d`` column sums per *batch*, amortising the
  per-user ``2^d`` bits, but never below ``1/64`` of them).

The per-frame container overhead is asserted separately and exactly, so it
cannot silently grow into the payload budget: a wire-format v3 frame is its
16-byte header plus the UTF-8 kind, one descriptor per array field (dtype
code and rank bytes plus a u64 per axis), an i64 per scalar field, a u8
width per per-user column and a 4-byte CRC-32 — everything else is the
sum-form arrays' element bytes and the packed rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import uniform_dataset
from repro.service import AggregationSession, report_schema_for
from repro.theory.bounds import communication_bits

from .util import ALL_PROTOCOLS, build, encode_batches, encode_frames, small_dataset

#: The widest band any protocol's wire cost may stray from Table 2.
ENCODING_OVERHEAD_FACTOR = 64

#: Magic, version, kind length and payload length.
FRAME_HEADER_BYTES = 16

#: The trailing CRC-32.
CRC_BYTES = 4


def per_user_columns(reports, schema):
    """Every per-user column of a batch, as the non-negative integers the
    wire packs (a ±1 sign as 0 or 1)."""
    columns = []
    for field in schema.fields:
        if not field.per_user:
            continue
        value = np.asarray(getattr(reports, field.name))
        table = value if value.ndim == 2 else value[:, None]
        for index in range(table.shape[1]):
            column = table[:, index]
            columns.append((column > 0).astype(int) if field.sign else column)
    return columns


def packed_row_bytes(reports, schema) -> int:
    """Each user's packed row: the columns' canonical bit widths, rounded
    up to whole bytes."""
    bits = sum(
        max(1, int(column.max()).bit_length())
        for column in per_user_columns(reports, schema)
    )
    return -(-bits // 8)


def container_overhead_bytes(reports, schema) -> int:
    """The exact non-element bytes of one frame of ``schema``'s reports."""
    descriptors = sum(2 + 8 * field.ndim for field in schema.fields)
    return (
        FRAME_HEADER_BYTES
        + len(schema.kind.encode("utf-8"))
        + descriptors
        + 8 * len(schema.scalar_fields)
        + len(per_user_columns(reports, schema))
        + CRC_BYTES
    )

N = 200
D = 6


@pytest.fixture(scope="module")
def dataset():
    return small_dataset(n=N, d=D, seed=11)


@pytest.mark.parametrize("name", ALL_PROTOCOLS)
def test_wire_bits_per_user_track_table2(name, dataset):
    protocol = build(name)
    (reports,) = encode_batches(protocol, dataset, None)
    frame = reports.to_bytes()

    session = AggregationSession(protocol.spec(), dataset.domain)
    session.submit(frame)
    metadata = session.metadata
    assert metadata["wire_bytes_total"] == len(frame)
    assert metadata["wire_reports"] == N
    wire_bits_per_user = 8.0 * metadata["wire_bytes_per_report"]

    table2_bits = protocol.communication_bits(D)
    ratio = wire_bits_per_user / table2_bits
    assert 1.0 / ENCODING_OVERHEAD_FACTOR <= ratio <= ENCODING_OVERHEAD_FACTOR, (
        f"{name}: {wire_bits_per_user:.1f} wire bits/user vs Table 2's "
        f"{table2_bits} bits/user (ratio {ratio:.2f}) is outside the "
        f"fixed-width encoding overhead band"
    )


@pytest.mark.parametrize("name", ALL_PROTOCOLS)
def test_container_overhead_is_exact(name, dataset):
    protocol = build(name)
    (reports,) = encode_batches(protocol, dataset, None)
    frame = reports.to_bytes()
    schema = report_schema_for(type(reports))
    element_bytes = reports.num_users * packed_row_bytes(reports, schema) + sum(
        np.asarray(getattr(reports, field.name)).nbytes
        for field in schema.fields
        if not field.per_user
    )
    overhead = len(frame) - element_bytes
    expected = container_overhead_bytes(reports, schema)
    assert overhead == expected, (
        f"{name}: container overhead {overhead} bytes (frame {len(frame)}, "
        f"elements {element_bytes}), expected exactly {expected}"
    )


TABLE2_D, TABLE2_K, FRAME_USERS = 8, 2, 500


@pytest.fixture(scope="module")
def table2_dataset():
    """1,000 uniform records at d = 8: two 500-user frames."""
    dataset = uniform_dataset(2 * FRAME_USERS, TABLE2_D, rng=np.random.default_rng(5))
    return dataset


def wire_bits_per_user(protocol, dataset) -> float:
    frames = encode_frames(protocol, dataset, FRAME_USERS)
    return 8.0 * sum(len(frame) for frame in frames) / dataset.size


@pytest.mark.parametrize("name", ["InpPS", "InpHT", "MargRR", "MargPS", "MargHT"])
def test_paper_protocols_send_table2_bits_plus_a_byte(name, table2_dataset):
    """Table 2's per-user bits, plus at most 8 for the row's byte padding
    and the frame's header and CRC-32 amortised over its users."""
    protocol = build(name, width=TABLE2_K)
    measured = wire_bits_per_user(protocol, table2_dataset)
    table2 = communication_bits(name, TABLE2_D, TABLE2_K)
    assert table2 == protocol.communication_bits(TABLE2_D)
    assert measured <= table2 + 8, (
        f"{name}: {measured:.2f} wire bits/user against Table 2's {table2}"
    )


def test_olh_sends_its_seed_and_bucket_in_a_word(table2_dataset):
    """An InpOLH report is a 62-bit hash seed plus a 2-bit bucket at
    eps = ln 3: one 64-bit row, plus the amortised frame."""
    measured = wire_bits_per_user(build("InpOLH", width=TABLE2_K), table2_dataset)
    assert measured <= 64 + 8, f"InpOLH: {measured:.2f} wire bits/user"


def test_batching_amortises_sum_form_reports(dataset):
    """InpRR's per-batch column sums shrink the per-user wire cost as the
    batch grows — the deployment story for its otherwise 2^d-bit reports."""
    protocol = build("InpRR")
    small_frames = encode_batches(protocol, dataset, 20)
    (large_frame,) = encode_batches(protocol, dataset, None)
    small_bytes = sum(len(reports.to_bytes()) for reports in small_frames)
    assert len(large_frame.to_bytes()) < small_bytes
