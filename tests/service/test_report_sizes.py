"""Serialized report sizes must track the paper's Table 2 communication.

Table 2 counts the *information-theoretic* bits each user sends (a marginal
index in ``ceil(log2 C(d,k))`` bits, a noisy value in 1 bit, ...).  The wire
codec ships every such logical quantity as one fixed-width NumPy word of at
most 64 bits (int64/float64 indices and values, int8 bit vectors), so the
measured per-user payload must stay within that encoding overhead of the
Table 2 bound:

* lower bound — the wire can compress below Table 2 only for sum-form
  reports (``InpRR`` ships ``2^d`` column sums per *batch*, amortising the
  per-user ``2^d`` bits), and even then never below ``1/64`` of it;
* upper bound — at most 64 wire bits per Table 2 bit, reached when a 1-bit
  logical value rides alone in a 64-bit word.

The per-frame container overhead is asserted separately and exactly, so it
cannot silently grow into the payload budget: a wire-format v2 frame is its
16-byte header plus the UTF-8 kind, one descriptor per array field (dtype
code and rank bytes plus a u64 per axis), an i64 per scalar field and a
4-byte CRC-32 — everything else is the arrays' element bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.service import AggregationSession, report_schema_for

from .util import ALL_PROTOCOLS, build, encode_batches, small_dataset

#: One fixed-width NumPy word per logical Table 2 quantity.
ENCODING_OVERHEAD_FACTOR = 64

#: Magic, version, kind length and payload length.
FRAME_HEADER_BYTES = 16

#: The trailing CRC-32.
CRC_BYTES = 4


def container_overhead_bytes(schema) -> int:
    """The exact non-element bytes of one frame of ``schema``'s reports."""
    descriptors = sum(2 + 8 * field.ndim for field in schema.fields)
    return (
        FRAME_HEADER_BYTES
        + len(schema.kind.encode("utf-8"))
        + descriptors
        + 8 * len(schema.scalar_fields)
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
    element_bytes = sum(
        np.asarray(getattr(reports, field.name)).nbytes
        for field in schema.fields
    )
    overhead = len(frame) - element_bytes
    assert overhead == container_overhead_bytes(schema), (
        f"{name}: container overhead {overhead} bytes (frame {len(frame)}, "
        f"elements {element_bytes}), expected exactly "
        f"{container_overhead_bytes(schema)}"
    )


def test_batching_amortises_sum_form_reports(dataset):
    """InpRR's per-batch column sums shrink the per-user wire cost as the
    batch grows — the deployment story for its otherwise 2^d-bit reports."""
    protocol = build("InpRR")
    small_frames = encode_batches(protocol, dataset, 20)
    (large_frame,) = encode_batches(protocol, dataset, None)
    small_bytes = sum(len(reports.to_bytes()) for reports in small_frames)
    assert len(large_frame.to_bytes()) < small_bytes
