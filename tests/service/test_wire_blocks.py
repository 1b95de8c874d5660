"""Block decoding: many parsed frames unpacked as one batch.

Decoding runs in two steps: :func:`parse_report_frame` makes every
structural check on one frame, and :func:`decode_report_block` unpacks
any number of parsed frames at once and makes the value checks.  A block
must equal :func:`concat_report_batches` of its frames' one-by-one
decodes, bit for bit, for every protocol and HH — empty frames, frames
with different width tables and one-frame blocks included — and its
working memory must stay within its outputs plus a fixed chunk budget.
"""

from __future__ import annotations

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domain import Domain
from repro.core.exceptions import WireFormatError
from repro.core.privacy import PrivacyBudget
from repro.datasets import BinaryDataset
from repro.protocols.inp_em import InpEMReports
from repro.protocols.inp_ps import InpPSReports
from repro.protocols import wire
from repro.protocols.registry import make_protocol
from repro.protocols.wire import (
    concat_report_batches,
    decode_report_block,
    decode_reports,
    parse_report_frame,
)

from .util import (
    ALL_PROTOCOLS,
    LN3,
    build,
    forge_frame,
    peak_bytes,
    small_dataset,
)

CASES = [(name, {}) for name in ALL_PROTOCOLS] + [
    ("HH", {"oracle": "InpHT"}),
    ("HH", {"oracle": "InpHTCMS", "num_hashes": 3, "width": 32}),
]


def _protocol(name, options):
    if options:
        return make_protocol(name, PrivacyBudget(LN3), 2, **options)
    return build(name)


def _frames(protocol, dimension, sizes, seed):
    rng = np.random.default_rng(seed)
    frames = []
    for users in sizes:
        records = (rng.random((users, dimension)) < 0.3).astype(np.int8)
        if users:
            records = BinaryDataset.from_records(records)
        frames.append(protocol.encode_batch(records, rng=rng).to_bytes())
    return frames


def _assert_same_batch(block, expected) -> None:
    assert type(block) is type(expected)
    for field in dataclasses.fields(expected):
        left, right = getattr(block, field.name), getattr(expected, field.name)
        if isinstance(right, np.ndarray):
            assert left.dtype == right.dtype
            assert left.shape == right.shape
            np.testing.assert_array_equal(left, right)
        else:
            assert left == right


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(CASES),
    dimension=st.integers(2, 8),
    sizes=st.lists(
        st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 40)),
        min_size=1,
        max_size=6,
    ),
    seed=st.integers(0, 2**16),
)
def test_block_equals_the_concatenation_of_its_frames(case, dimension, sizes, seed):
    protocol = _protocol(*case)
    domain = Domain.binary(dimension)
    frames = _frames(protocol, dimension, sizes, seed)
    expected = concat_report_batches([decode_reports(frame) for frame in frames])
    block = decode_report_block([parse_report_frame(frame) for frame in frames])
    _assert_same_batch(block, expected)
    # The protocol's own two steps check the values against the spec.
    checked = protocol.decode_report_block(
        [protocol.parse_report_frame(frame, domain) for frame in frames], domain
    )
    _assert_same_batch(checked, expected)


@pytest.mark.parametrize("cells", [1, 7, 64])
@pytest.mark.parametrize("name", ["InpOLH", "MargRR", "HH", "InpEM"])
def test_row_chunks_may_cut_through_frames(name, cells, monkeypatch):
    """Chunks of a few rows, cutting frames anywhere, decode the block
    the same as one chunk does."""
    protocol = build(name)
    frames = _frames(protocol, 6, [5, 1, 9, 3, 0, 4], 7)
    expected = concat_report_batches([decode_reports(frame) for frame in frames])
    monkeypatch.setattr(wire, "_CHUNK_CELLS", cells)
    block = decode_report_block([parse_report_frame(frame) for frame in frames])
    _assert_same_batch(block, expected)


def test_frames_with_different_width_tables_form_runs():
    """One-user InpPS frames whose indices need 1, 3 and 2 bits: three
    runs in one block, back in frame order."""
    values = [1, 5, 2, 7, 6]
    frames = [
        InpPSReports(noisy_indices=np.array([value], dtype=np.int64)).to_bytes()
        for value in values
    ]
    parsed = [parse_report_frame(frame) for frame in frames]
    assert len({frame.widths for frame in parsed}) == 3
    block = decode_report_block(parsed)
    np.testing.assert_array_equal(block.noisy_indices, values)


def test_a_loose_frame_is_refused_inside_a_run():
    """Two frames with one width table form one run; the second packs its
    index at 3 bits but needs 1.  The run's largest value reaches the top
    bit, but each frame must: the block is refused."""
    canonical = InpPSReports(noisy_indices=np.array([5], dtype=np.int64)).to_bytes()
    loose = forge_frame("InpPS", struct.pack("<BBQ", 0, 1, 1) + bytes([3, 1]))
    parsed = [parse_report_frame(frame) for frame in (canonical, loose)]
    assert parsed[0].widths == parsed[1].widths
    with pytest.raises(WireFormatError, match="packs column 0 at 3 bits"):
        decode_report_block(parsed)


def test_a_one_frame_block_is_decode_reports():
    (frame,) = _frames(build("InpOLH"), 6, [30], 1)
    _assert_same_batch(
        decode_report_block([parse_report_frame(frame)]), decode_reports(frame)
    )


def test_block_refuses_mixed_kinds_and_no_frames():
    olh = parse_report_frame(_frames(build("InpOLH"), 4, [3], 1)[0])
    ps = parse_report_frame(_frames(build("InpPS"), 4, [3], 1)[0])
    with pytest.raises(WireFormatError, match="as one block"):
        decode_report_block([olh, ps])
    with pytest.raises(WireFormatError, match="zero report frames"):
        decode_report_block([])


def test_value_checks_wait_for_the_block():
    """A bucket at g passes the structural checks of its frame and is
    refused when its block is unpacked, whichever frame holds it."""
    protocol = build("InpOLH")
    dataset = small_dataset(n=12, d=4)
    g = protocol.oracle(4).num_buckets
    reports = protocol.encode_batch(dataset, rng=np.random.default_rng(1))
    buckets = reports.noisy_buckets.copy()
    buckets[5] = g
    bad = dataclasses.replace(reports, noisy_buckets=buckets).to_bytes()
    good = reports.to_bytes()
    parsed = [
        protocol.parse_report_frame(frame, dataset.domain) for frame in (good, bad)
    ]
    with pytest.raises(WireFormatError, match=rf"bound \[0, {g}\)"):
        protocol.decode_report_block(parsed, dataset.domain)


#: The unpack's working memory beside its outputs and the copies of the
#: packed rows: a few arrays of one row chunk's cells.
CHUNK_BUDGET = 4 << 20


@pytest.mark.parametrize("with_spec", [False, True])
def test_large_frame_decodes_within_its_outputs_and_a_chunk_budget(with_spec):
    """An InpEM frame of 2^20 users and 8 one-bit attributes (1 MiB of
    rows) decodes into 8 MiB of int8 records; holding every packed cell
    as a 64-bit word first would take 64 MiB more."""
    users = 1 << 20
    records = np.random.default_rng(3).integers(0, 2, (users, 8), dtype=np.int8)
    frame = InpEMReports(noisy_records=records).to_bytes()
    protocol = build("InpEM")
    if with_spec:
        decode = lambda: protocol.decode_reports(frame, Domain.binary(8))  # noqa: E731
    else:
        decode = lambda: decode_reports(frame)  # noqa: E731
    np.testing.assert_array_equal(decode().noisy_records, records)
    peak = peak_bytes(decode)
    assert peak < records.nbytes + 2 * len(frame) + CHUNK_BUDGET
