"""Decoder fuzzing: hostile report bytes end in ``WireFormatError``.

Over every registered report kind (the nine protocols plus HH), arbitrary
payload bytes behind a valid header, a truncation at every offset and
every single-byte flip of a valid frame must each raise
:class:`WireFormatError` — never another exception, and never a silent
decode.  The flip property rests on the frame's CRC-32 (it catches every
single-byte error) behind the header checks.  Payloads forged *with* a
valid CRC reach the field parser itself: those may decode, but only into
a batch that re-encodes to the very same bytes.

The packed rows of wire v3 get their own hostile cases: a truncated width
table, a width of 0 or above 64, rows that disagree with the stride, any
bit pattern in the rows (a sign always decodes to ±1), values that fit
their width but not the spec (a bucket at g, a level at L) and a retired
version-2 frame.  A round-trip property covers every protocol and HH at
random dimensions and batch sizes, 0 and 1 included.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domain import Domain
from repro.core.exceptions import WireFormatError
from repro.core.privacy import PrivacyBudget
from repro.datasets import BinaryDataset
from repro.protocols.registry import make_protocol
from repro.protocols.wire import WIRE_FORMAT_VERSION
from repro.server.framing import FrameDecoder
from repro.service import (
    AggregationSession,
    decode_reports,
    report_schema_for,
    split_report_frames,
)

from ..oracles import decode_rows_reference
from .util import (
    ALL_PROTOCOLS,
    LN3,
    build,
    encode_frames,
    forge_frame,
    payload_body,
    peak_bytes,
    small_dataset,
)

FUZZ = settings(max_examples=150, deadline=None)


@functools.lru_cache(maxsize=None)
def valid_frame(name: str) -> bytes:
    """One small real frame of ``name``'s reports."""
    (frame,) = encode_frames(build(name), small_dataset(n=12, d=4), None)
    return frame


def _header(name: str, payload_length: int) -> bytes:
    kind = name.encode("utf-8")
    return (
        struct.pack("<4sHH", b"RPRB", WIRE_FORMAT_VERSION, len(kind))
        + kind
        + struct.pack("<Q", payload_length)
    )


def _assert_rejected_everywhere(data: bytes) -> None:
    """``data`` is refused by the buffer decoder, the stream splitter and
    the server's incremental decoder (which may also just wait for bytes
    a corrupted length field promises)."""
    with pytest.raises(WireFormatError):
        decode_reports(data)
    with pytest.raises(WireFormatError):
        for frame in split_report_frames(io.BytesIO(data)):
            decode_reports(frame)
    decoder = FrameDecoder()
    try:
        decoder.absorb(data)
        decoded = [decode_reports(item) for item in decoder.frames()]
    except WireFormatError:
        return
    # No error: the decoder must still be waiting for the rest of a frame
    # (the connection would end mid-frame and be dropped, folding nothing).
    assert not decoded and not decoder.at_frame_boundary


protocols = st.sampled_from(ALL_PROTOCOLS)


class TestHostilePayloads:
    @FUZZ
    @given(name=protocols, payload=st.binary(max_size=512))
    def test_arbitrary_payload_behind_valid_header(self, name, payload):
        _assert_rejected_everywhere(_header(name, len(payload)) + payload)

    @FUZZ
    @given(name=protocols, body=st.binary(max_size=512))
    def test_crc_valid_arbitrary_body_never_crashes(self, name, body):
        frame = forge_frame(name, body)
        try:
            reports = decode_reports(frame)
        except WireFormatError:
            return
        assert reports.to_bytes() == frame

    @FUZZ
    @given(name=protocols, data=st.data())
    def test_crc_valid_mutated_body_never_crashes(self, name, data):
        """Edits to a real payload — descriptors, shapes, scalars — with
        the CRC recomputed, so the field parser sees every mutation."""
        body = bytearray(payload_body(valid_frame(name)))
        edits = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(body) - 1), st.integers(0, 255)
                ),
                min_size=1,
                max_size=4,
            )
        )
        for position, value in edits:
            body[position] = value
        cut = data.draw(st.integers(0, len(body)))
        frame = forge_frame(name, bytes(body[:cut]))
        try:
            reports = decode_reports(frame)
        except WireFormatError:
            return
        assert reports.to_bytes() == frame


class TestValidFrameDamage:
    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_every_truncation_rejected(self, name):
        frame = valid_frame(name)
        for cut in range(len(frame)):
            with pytest.raises(WireFormatError):
                decode_reports(frame[:cut])
        for cut in range(1, len(frame)):
            with pytest.raises(WireFormatError, match="truncated"):
                list(split_report_frames(io.BytesIO(frame[:cut])))

    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    @pytest.mark.parametrize("mask", [0x01, 0x80, 0xFF])
    def test_every_single_byte_flip_rejected(self, name, mask):
        frame = valid_frame(name)
        for position in range(len(frame)):
            flipped = bytearray(frame)
            flipped[position] ^= mask
            _assert_rejected_everywhere(bytes(flipped))

    @FUZZ
    @given(name=protocols, data=st.data())
    def test_any_byte_flip_rejected(self, name, data):
        frame = valid_frame(name)
        position = data.draw(st.integers(0, len(frame) - 1))
        mask = data.draw(st.integers(1, 255))
        flipped = bytearray(frame)
        flipped[position] ^= mask
        _assert_rejected_everywhere(bytes(flipped))


# --------------------------------------------------------------------------
# Wire v3: the width table and the packed rows.

PACKED = [
    name
    for name in ALL_PROTOCOLS
    if any(field.per_user for field in report_schema_for(name).fields)
]


def _layout(name: str, body: bytes):
    """``(width table offset, column count, rows offset)`` of a real
    frame's payload ``body`` (a valid frame has no sum-form fields beside
    packed ones)."""
    schema = report_schema_for(name)
    offset = 0
    columns = 0
    for field in schema.fields:
        code, ndim = body[offset], body[offset + 1]
        shape = struct.unpack_from(f"<{ndim}Q", body, offset + 2)
        offset += 2 + 8 * ndim
        if field.per_user:
            columns += 1 if ndim == 1 else shape[1]
    offset += 8 * len(schema.scalar_fields)
    return offset, columns, offset + columns


def _sign_fields(reports):
    schema = report_schema_for(type(reports))
    return [getattr(reports, field.name) for field in schema.fields if field.sign]


class TestPackedRows:
    @pytest.mark.parametrize("name", PACKED)
    def test_truncated_width_table_rejected(self, name):
        body = payload_body(valid_frame(name))
        start, columns, _ = _layout(name, body)
        for cut in range(start, start + columns):
            with pytest.raises(WireFormatError, match="width table"):
                decode_reports(forge_frame(name, body[:cut]))

    @FUZZ
    @given(name=st.sampled_from(PACKED), data=st.data())
    def test_width_out_of_range_rejected(self, name, data):
        """A width above 64 (or above what the column's dtype holds), or 0
        in a non-empty batch, is refused before any row is read."""
        body = bytearray(payload_body(valid_frame(name)))
        start, columns, _ = _layout(name, body)
        column = data.draw(st.integers(0, columns - 1), label="column")
        body[start + column] = data.draw(
            st.one_of(st.just(0), st.integers(65, 255)), label="width"
        )
        with pytest.raises(WireFormatError):
            decode_reports(forge_frame(name, bytes(body)))

    @FUZZ
    @given(name=st.sampled_from(PACKED), data=st.data())
    def test_rows_disagreeing_with_the_stride_rejected(self, name, data):
        """Rows whose length is not ``rows * stride``: bytes added to or
        cut from the packed rows (the CRC resealed)."""
        body = payload_body(valid_frame(name))
        _, _, rows_at = _layout(name, body)
        if data.draw(st.booleans(), label="grow"):
            forged = body + data.draw(st.binary(min_size=1, max_size=16))
        else:
            forged = body[: data.draw(st.integers(rows_at, len(body) - 1))]
        with pytest.raises(WireFormatError, match="row|trailing"):
            decode_reports(forge_frame(name, forged))

    @FUZZ
    @given(name=st.sampled_from(PACKED), data=st.data())
    def test_any_row_bits_decode_to_signs_or_are_refused(self, name, data):
        """Arbitrary packed-row bytes under valid descriptors and widths:
        a sign column decodes to exactly -1.0 or +1.0 whatever its bit, and
        a row that is not the canonical packing of its batch (a wider
        width than its values need, set padding bits) is refused."""
        body = payload_body(valid_frame(name))
        _, _, rows_at = _layout(name, body)
        rows = data.draw(
            st.binary(min_size=len(body) - rows_at, max_size=len(body) - rows_at)
        )
        frame = forge_frame(name, body[:rows_at] + rows)
        try:
            reports = decode_reports(frame)
        except WireFormatError:
            return
        for signs in _sign_fields(reports):
            assert signs.dtype == np.float64
            assert np.isin(signs, (-1.0, 1.0)).all()
        assert reports.to_bytes() == frame

    @pytest.mark.parametrize("name", ["InpHT", "MargHT", "InpHTCMS"])
    def test_every_sign_bit_pattern_decodes_to_plus_or_minus_one(self, name):
        """Flip each user's sign bit in turn: the batch still decodes, and
        only that user's sign changes."""
        protocol = build(name)
        dataset = small_dataset(n=12, d=4)
        reports = protocol.encode_batch(dataset, rng=np.random.default_rng(1))
        (field,) = [
            field for field in report_schema_for(name).fields if field.sign
        ]
        signs = getattr(reports, field.name)
        for user in range(reports.num_users):
            flipped = signs.copy()
            flipped[user] = -flipped[user]
            forged = dataclasses.replace(reports, **{field.name: flipped})
            decoded = protocol.decode_reports(forged.to_bytes(), dataset.domain)
            np.testing.assert_array_equal(getattr(decoded, field.name), flipped)

    def test_out_of_spec_bucket_refused(self):
        """A bucket at g fits its packed width but not the spec: the
        protocol's decoder (and every ingest path) refuses it."""
        protocol = build("InpOLH")
        dataset = small_dataset(n=12, d=4)
        reports = protocol.encode_batch(dataset, rng=np.random.default_rng(1))
        g = protocol.oracle(dataset.domain.dimension).num_buckets
        buckets = reports.noisy_buckets.copy()
        buckets[3] = g
        frame = dataclasses.replace(reports, noisy_buckets=buckets).to_bytes()
        decode_reports(frame)  # well-formed without a spec
        with pytest.raises(WireFormatError, match=rf"bound \[0, {g}\)"):
            protocol.decode_reports(frame, dataset.domain)
        with pytest.raises(WireFormatError, match="noisy_buckets"):
            AggregationSession(protocol.spec(), dataset.domain).submit(frame)

    def test_out_of_spec_level_refused(self):
        protocol = build("HH")
        dataset = small_dataset(n=12, d=4)
        reports = protocol.encode_batch(dataset, rng=np.random.default_rng(1))
        num_levels = len(protocol.level_plan(dataset.domain.dimension))
        levels = reports.levels.copy()
        levels[0] = num_levels
        frame = dataclasses.replace(reports, levels=levels).to_bytes()
        with pytest.raises(
            WireFormatError, match=rf"'levels' holds {num_levels}, outside"
        ):
            protocol.decode_reports(frame, dataset.domain)

    def test_column_count_against_the_spec(self):
        """InpEM's rows carry one bit per attribute; a frame built for
        another dimension is refused by the spec's bounds."""
        protocol = build("InpEM")
        frame = protocol.encode_batch(
            small_dataset(n=12, d=5), rng=np.random.default_rng(1)
        ).to_bytes()
        with pytest.raises(WireFormatError, match="has 5 column"):
            protocol.decode_reports(frame, small_dataset(n=12, d=4).domain)

    def test_retired_v2_frame_refused_on_every_path(self):
        body = payload_body(valid_frame("InpHT"))
        v2 = forge_frame("InpHT", body, version=2)
        pattern = "version 2 .*this library speaks version 3"
        with pytest.raises(WireFormatError, match=pattern):
            decode_reports(v2)
        with pytest.raises(WireFormatError, match=pattern):
            list(split_report_frames(io.BytesIO(v2)))
        with pytest.raises(WireFormatError, match=pattern):
            FrameDecoder().feed(v2)


# --------------------------------------------------------------------------
# Wide frames: many columns, columns spanning two words, any row bits,
# against a bit-by-bit reference unpacker.


def _many_columns_frame(columns: int) -> bytes:
    """An InpEM frame of one user with ``columns`` 1-bit attributes."""
    bits = np.random.default_rng(columns).integers(0, 2, columns, dtype=np.uint8)
    body = (
        struct.pack("<BB2Q", 2, 2, 1, columns)
        + b"\x01" * columns
        + np.packbits(bits, bitorder="little").tobytes()
    )
    return forge_frame("InpEM", body)


def _wide_frames():
    """Real frames whose rows take more columns than the one-by-one cut
    handles, or hold a column that spans two 64-bit words."""
    dataset = small_dataset(n=12, d=12)
    em = build("InpEM").encode_batch(dataset, rng=np.random.default_rng(1))
    rr = build("MargRR", width=3).encode_batch(
        small_dataset(n=12, d=4), rng=np.random.default_rng(1)
    )
    # Five levels take 3 bits, so the 62-bit seed after them spans words.
    hh = make_protocol("HH", PrivacyBudget(LN3), 2, oracle="InpOLH").encode_batch(
        small_dataset(n=12, d=10), rng=np.random.default_rng(1)
    )
    return {"InpEM": em.to_bytes(), "MargRR": rr.to_bytes(), "HH": hh.to_bytes()}


WIDE_FRAMES = _wide_frames()


def _assert_matches_reference(name: str, frame: bytes) -> None:
    """``frame`` decodes to what the bit-by-bit reference unpacker reads
    from its rows, or is refused for the reason the reference finds."""
    expected = decode_rows_reference(name, payload_body(frame))
    if expected == "padding":
        with pytest.raises(WireFormatError, match="padding bits"):
            decode_reports(frame)
        return
    if isinstance(expected, str):
        column = expected.split()[-1]
        with pytest.raises(WireFormatError, match=rf"packs column {column} at"):
            decode_reports(frame)
        return
    reports = decode_reports(frame)
    for field, values in expected.items():
        decoded = getattr(reports, field)
        assert decoded.dtype == values.dtype
        np.testing.assert_array_equal(decoded, values)


class TestWideFrames:
    def test_million_columns_refused_against_the_spec_without_reading_them(self):
        """A forged InpEM frame declaring 10^6 attributes is refused by the
        spec's column count before its width table or rows are read."""
        frame = _many_columns_frame(10**6)
        protocol = build("InpEM")
        domain = Domain.binary(8)
        with pytest.raises(WireFormatError, match="has 1000000 column"):
            protocol.decode_reports(frame, domain)

        def refuse():
            with pytest.raises(WireFormatError, match="has 1000000 column"):
                AggregationSession(protocol.spec(), domain).submit(frame)

        assert peak_bytes(refuse) < len(frame)

    def test_million_columns_decode_in_memory_linear_in_the_frame(self):
        """Without a spec the same frame is well formed: it decodes to the
        packed bits, with a working set of a few words per column."""
        frame = _many_columns_frame(10**6)
        expected = np.random.default_rng(10**6).integers(0, 2, 10**6, dtype=np.int8)
        reports = decode_reports(frame)
        np.testing.assert_array_equal(reports.noisy_records, expected[None, :])
        assert peak_bytes(lambda: decode_reports(frame)) < 64 * len(frame)

    @pytest.mark.parametrize("name", sorted(WIDE_FRAMES))
    def test_wide_frames_match_the_reference_unpacker(self, name):
        _assert_matches_reference(name, WIDE_FRAMES[name])
        assert decode_reports(WIDE_FRAMES[name]).to_bytes() == WIDE_FRAMES[name]

    def test_a_column_spanning_two_words_round_trips(self):
        reports = decode_reports(WIDE_FRAMES["HH"])
        body = payload_body(WIDE_FRAMES["HH"])
        start, columns, _ = _layout("HH", body)
        level_bits, seed_bits = body[start], body[start + 1]
        assert level_bits + seed_bits > 64  # the seed spans two words
        assert reports.to_bytes() == WIDE_FRAMES["HH"]

    @FUZZ
    @given(
        name=st.sampled_from(sorted(WIDE_FRAMES) + ["InpOLH", "InpHT", "MargHT"]),
        data=st.data(),
    )
    def test_any_row_bits_match_the_reference_unpacker(self, name, data):
        """Arbitrary packed-row bytes under a real layout decode to what
        the bit-by-bit reference reads, or are refused for its reason."""
        frame = WIDE_FRAMES.get(name) or valid_frame(name)
        body = payload_body(frame)
        _, _, rows_at = _layout(name, body)
        size = len(body) - rows_at
        rows = data.draw(st.binary(min_size=size, max_size=size), label="rows")
        _assert_matches_reference(name, forge_frame(name, body[:rows_at] + rows))


class TestLevelBounds:
    def test_inpht_choice_checked_against_its_own_level(self):
        """HH over InpHT: a choice inside the widest level's coefficient
        set but outside its own level's is refused at decode."""
        protocol = make_protocol("HH", PrivacyBudget(LN3), 2, oracle="InpHT")
        dataset = small_dataset(n=12, d=4)
        plan = protocol.level_plan(dataset.domain.dimension)
        for bits in plan:
            inner = protocol.level_protocol(bits).report_bounds(bits)
            assert inner["choices"] == ((1 << bits) - 1,)
        reports = protocol.encode_batch(dataset, rng=np.random.default_rng(1))
        levels = reports.levels.copy()
        int_data = reports.int_data.copy()
        levels[0], int_data[0, 0] = 0, (1 << plan[0]) - 1
        frame = dataclasses.replace(reports, levels=levels, int_data=int_data).to_bytes()
        assert int_data[0, 0] < (1 << plan[-1]) - 1  # within the widest bound
        with pytest.raises(WireFormatError, match="at level 0, outside"):
            protocol.decode_reports(frame, dataset.domain)
        with pytest.raises(WireFormatError, match="at level 0"):
            AggregationSession(protocol.spec(), dataset.domain).submit(frame)
        int_data[0, 0] -= 1
        frame = dataclasses.replace(reports, levels=levels, int_data=int_data).to_bytes()
        protocol.decode_reports(frame, dataset.domain)


# --------------------------------------------------------------------------
# Round trip: every protocol, any dimension, any batch size.

ROUND_TRIP_CASES = [(name, {}) for name in ALL_PROTOCOLS] + [
    ("HH", {"oracle": "InpHT"}),
    ("HH", {"oracle": "InpHTCMS", "num_hashes": 3, "width": 32}),
]


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(ROUND_TRIP_CASES),
    dimension=st.integers(2, 10),
    users=st.one_of(st.sampled_from([0, 1]), st.integers(2, 70)),
    seed=st.integers(0, 2**16),
)
def test_round_trip_is_exact_for_every_protocol(case, dimension, users, seed):
    name, options = case
    if options:
        protocol = make_protocol(name, PrivacyBudget(LN3), 2, **options)
    else:
        protocol = build(name)
    rng = np.random.default_rng(seed)
    records = (rng.random((users, dimension)) < 0.3).astype(np.int8)
    if users:
        records = BinaryDataset.from_records(records)
    reports = protocol.encode_batch(records, rng=rng)
    frame = reports.to_bytes()
    domain = Domain.binary(dimension)
    for decoded in (decode_reports(frame), protocol.decode_reports(frame, domain)):
        assert type(decoded) is type(reports)
        for field in dataclasses.fields(reports):
            original = getattr(reports, field.name)
            restored = getattr(decoded, field.name)
            if isinstance(original, np.ndarray):
                assert restored.dtype == original.dtype
                assert restored.shape == original.shape
                np.testing.assert_array_equal(restored, original)
            else:
                assert restored == original
    assert decoded.to_bytes() == frame
