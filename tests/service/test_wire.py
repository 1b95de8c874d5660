"""Report wire codec: round-trip fidelity and malformed-buffer rejection.

The acceptance bar for the codec is exact: for every protocol, encode →
``to_bytes`` → ``from_bytes`` → aggregate must be bit-for-bit identical to
the in-memory ``run_streaming`` path (proven here as a protocol x executor
matrix), and corrupted, truncated or version-mismatched buffers must raise
clean :class:`WireFormatError`\\ s before touching an accumulator.
"""

from __future__ import annotations

import dataclasses
import io
import struct

import numpy as np
import pytest

from repro.core.exceptions import WireFormatError
from repro.execution import available_executors, make_executor
from repro.service import (
    WIRE_FORMAT_VERSION,
    AggregationSession,
    ReportField,
    decode_reports,
    encode_reports,
    iter_report_frames,
    split_report_frames,
)
from repro.protocols.inp_ht import InpHTReports
from repro.protocols.inp_olh import InpOLHReports
from repro.protocols.inp_rr import InpRRReports

from .util import (
    ALL_PROTOCOLS,
    SEED,
    assert_estimates_equal,
    build,
    encode_frames,
    estimates_of,
    forge_frame,
    payload_body,
    small_dataset,
)

BATCH_SIZE = 24  # 96 records -> 4 batches


def _descriptor(code: int, *shape: int) -> bytes:
    """One field descriptor: dtype code, rank, then the shape."""
    return struct.pack(f"<BB{len(shape)}Q", code, len(shape), *shape)


@pytest.fixture(scope="module")
def dataset():
    return small_dataset()


@pytest.fixture(scope="module")
def executors():
    cache = {}
    yield lambda name: cache.setdefault(name, make_executor(name, 2))
    for executor in cache.values():
        executor.close()


class TestFieldRoundTrip:
    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_every_field_survives_bit_for_bit(self, name, dataset):
        protocol = build(name)
        reports = protocol.encode_batch(dataset, rng=np.random.default_rng(3))
        decoded = type(reports).from_bytes(reports.to_bytes())
        assert type(decoded) is type(reports)
        for field in dataclasses.fields(reports):
            original = getattr(reports, field.name)
            restored = getattr(decoded, field.name)
            if isinstance(original, np.ndarray):
                assert restored.dtype == original.dtype
                np.testing.assert_array_equal(restored, original)
            else:
                assert restored == original
        assert decoded.num_users == reports.num_users

    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_protocol_decode_reports_round_trip(self, name, dataset):
        protocol = build(name)
        reports = protocol.encode_batch(dataset, rng=np.random.default_rng(5))
        decoded = protocol.decode_reports(reports.to_bytes())
        assert type(decoded) is type(reports)

    def test_empty_batch_round_trips(self, dataset):
        protocol = build("InpHT")
        reports = protocol.encode_batch(
            dataset.records[:0], rng=np.random.default_rng(0)
        )
        decoded = protocol.decode_reports(reports.to_bytes())
        assert decoded.num_users == 0


class TestWirePathMatchesRunStreaming:
    """Acceptance matrix: wire path == in-memory path, on every executor."""

    @pytest.fixture(scope="class")
    def baselines(self, dataset):
        tables = {}
        for name in ALL_PROTOCOLS:
            estimator = build(name).run_streaming(
                dataset,
                rng=np.random.default_rng(SEED),
                batch_size=BATCH_SIZE,
            )
            tables[name] = estimates_of(estimator)
        return tables

    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    @pytest.mark.parametrize("executor_name", sorted(available_executors()))
    def test_wire_aggregation_matches_run_streaming(
        self, name, executor_name, dataset, baselines, executors
    ):
        protocol = build(name)
        streamed = protocol.run_streaming(
            dataset,
            rng=np.random.default_rng(SEED),
            batch_size=BATCH_SIZE,
            shards=2,
            executor=executors(executor_name),
        )
        session = AggregationSession(protocol.spec(), dataset.domain)
        for frame in encode_frames(protocol, dataset, BATCH_SIZE):
            session.submit(frame)
        wire_estimates = estimates_of(session.snapshot())
        assert_estimates_equal(wire_estimates, estimates_of(streamed))
        assert_estimates_equal(wire_estimates, baselines[name])


class TestFraming:
    def test_iter_report_frames_splits_concatenated_stream(self, dataset):
        protocol = build("MargPS")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        stream = b"".join(frames)
        decoded = list(iter_report_frames(stream))
        assert len(decoded) == len(frames)
        assert sum(batch.num_users for batch in decoded) == dataset.size

    def test_iter_report_frames_accepts_binary_file(self, dataset):
        protocol = build("InpPS")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        decoded = list(iter_report_frames(io.BytesIO(b"".join(frames))))
        assert len(decoded) == len(frames)

    def test_split_report_frames_preserves_bytes(self, dataset):
        protocol = build("InpEM")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        assert list(split_report_frames(b"".join(frames))) == frames

    def test_decode_reports_rejects_trailing_data(self, dataset):
        protocol = build("InpHT")
        frame = encode_frames(protocol, dataset, None)[0]
        with pytest.raises(WireFormatError, match="trailing"):
            decode_reports(frame + b"\x00")

    def test_mixed_kind_stream_decodes_per_frame(self, dataset):
        first = build("InpHT")
        second = build("MargHT")
        stream = (
            encode_frames(first, dataset, None)[0]
            + encode_frames(second, dataset, None)[0]
        )
        kinds = [type(batch).__name__ for batch in iter_report_frames(stream)]
        assert kinds == ["InpHTReports", "MargHTReports"]


class TestMalformedBuffers:
    @pytest.fixture()
    def frame(self, dataset):
        protocol = build("InpHT")
        return protocol.encode_batch(
            dataset, rng=np.random.default_rng(7)
        ).to_bytes()

    def test_not_a_frame(self):
        with pytest.raises(WireFormatError, match="magic"):
            decode_reports(b"this is not a report frame at all")

    def test_empty_buffer(self):
        with pytest.raises(WireFormatError, match="truncated"):
            decode_reports(b"")

    def test_truncated_header(self, frame):
        with pytest.raises(WireFormatError, match="truncated"):
            decode_reports(frame[:10])

    def test_truncated_payload(self, frame):
        with pytest.raises(WireFormatError, match="truncated"):
            decode_reports(frame[:-20])

    def test_corrupted_payload(self, frame):
        corrupted = bytearray(frame)
        corrupted[-40] ^= 0xFF
        with pytest.raises(WireFormatError, match="'InpHT' is corrupted.*CRC-32"):
            decode_reports(bytes(corrupted))

    def test_version_mismatch(self, frame):
        stale = bytearray(frame)
        struct.pack_into("<H", stale, 4, WIRE_FORMAT_VERSION + 7)
        with pytest.raises(WireFormatError, match="version"):
            decode_reports(bytes(stale))

    def test_unknown_kind(self, frame):
        header = struct.pack("<4sHH", b"RPRB", WIRE_FORMAT_VERSION, 5)
        payload = frame[struct.calcsize("<4sHH") + 5 :]
        with pytest.raises(WireFormatError, match="unknown report kind"):
            decode_reports(header + b"NoSuc" + payload)

    def test_wrong_kind_for_protocol(self, frame, dataset):
        other = build("MargPS")
        with pytest.raises(WireFormatError, match="expected 'MargPS'"):
            other.decode_reports(frame)

    def test_wrong_kind_for_class(self, frame):
        with pytest.raises(WireFormatError, match="expected 'InpRR'"):
            InpRRReports.from_bytes(frame)

    def test_forged_frame_helper_reproduces_real_frames(self, frame):
        """The forging helper below is exact: re-wrapping a real frame's
        payload gives back the real frame, CRC included."""
        assert forge_frame("InpHT", payload_body(frame)) == frame

    def test_missing_field_rejected(self):
        # InpHT declares choices then noisy_values; the payload ends after
        # the first descriptor (an empty choices array).
        with pytest.raises(WireFormatError, match=r"missing \['noisy_values'\]"):
            decode_reports(forge_frame("InpHT", _descriptor(0, 0)))

    def test_wrong_dtype_rejected(self):
        body = (
            _descriptor(1, 3)  # choices as <f8; the schema wants <i8
            + _descriptor(1, 3)
            + np.zeros(3).tobytes()
            + np.ones(3).tobytes()
        )
        with pytest.raises(WireFormatError, match="must have dtype int64"):
            decode_reports(forge_frame("InpHT", body))

    def test_unknown_dtype_code_rejected(self):
        body = _descriptor(9, 3) + _descriptor(1, 3) + bytes(48)
        with pytest.raises(WireFormatError, match="unknown dtype code 9"):
            decode_reports(forge_frame("InpHT", body))

    def test_wrong_rank_rejected(self):
        body = _descriptor(0, 3, 1) + _descriptor(1, 3) + bytes(48)
        with pytest.raises(WireFormatError, match="must be 1-D, got 2-D"):
            decode_reports(forge_frame("InpHT", body))

    def test_per_user_row_mismatch_rejected(self):
        body = (
            _descriptor(0, 3)
            + _descriptor(1, 4)
            + np.zeros(3, dtype=np.int64).tobytes()
            + np.ones(4).tobytes()
        )
        with pytest.raises(WireFormatError, match="disagree on the batch"):
            decode_reports(forge_frame("InpHT", body))

    def test_shape_beyond_remaining_bytes_rejected(self):
        body = (
            _descriptor(0, 3)
            + _descriptor(1, 3)
            + bytes([2, 1])  # choices in 2 bits, noisy_values in 1: 1-byte rows
            + bytes([0b001, 0b110])  # 3 rows declared, 2 shipped
        )
        with pytest.raises(
            WireFormatError,
            match=r"declares 3 row\(s\) of 1 byte\(s\) but only 2 payload bytes",
        ):
            decode_reports(forge_frame("InpHT", body))

    def test_giant_axis_rejected(self):
        """An empty batch with an absurd second axis fits in zero bytes,
        but numpy cannot even describe its shape."""
        body = _descriptor(2, 0, (1 << 64) - 1)
        with pytest.raises(WireFormatError, match="axis above"):
            decode_reports(forge_frame("InpEM", body))

    def test_trailing_payload_bytes_rejected(self, frame):
        forged = forge_frame("InpHT", payload_body(frame) + b"\x00")
        with pytest.raises(WireFormatError, match="1 trailing byte"):
            decode_reports(forged)

    def test_negative_scalar_rejected(self):
        body = _descriptor(1, 4) + struct.pack("<q", -1) + bytes(32)
        with pytest.raises(WireFormatError, match="must be non-negative"):
            decode_reports(forge_frame("InpRR", body))

    def test_payload_too_short_for_crc(self):
        name = b"InpHT"
        frame = (
            struct.pack("<4sHH", b"RPRB", WIRE_FORMAT_VERSION, len(name))
            + name
            + struct.pack("<Q", 3)
            + b"abc"
        )
        with pytest.raises(WireFormatError, match="cannot hold its 4-byte CRC"):
            decode_reports(frame)

    def test_packed_rows_decode_to_the_fields_dtypes(self):
        """A hand-packed InpHT frame: each 1-byte row holds a 2-bit choice
        in bits 0-1 and the sign in bit 2."""
        body = (
            _descriptor(0, 3)
            + _descriptor(1, 3)
            + bytes([2, 1])
            + bytes([0b101, 0b010, 0b011])
        )
        decoded = decode_reports(forge_frame("InpHT", body))
        assert decoded.choices.dtype == np.int64
        np.testing.assert_array_equal(decoded.choices, [1, 2, 3])
        assert decoded.noisy_values.dtype == np.float64
        np.testing.assert_array_equal(decoded.noisy_values, [1.0, -1.0, -1.0])

    def test_wider_than_needed_column_rejected(self):
        """Only the canonical width decodes: choices up to 3 packed in 3
        bits (not 2) would let one batch travel as several frames."""
        body = _descriptor(0, 2) + _descriptor(1, 2) + bytes([3, 1])
        with pytest.raises(WireFormatError, match="largest value 3 needs 2"):
            decode_reports(forge_frame("InpHT", body + bytes([0b0011, 0b1010])))

    def test_set_padding_bit_rejected(self):
        """A 3-bit row padded to a byte: bit 3 set in one row."""
        body = _descriptor(0, 2) + _descriptor(1, 2) + bytes([2, 1])
        decode_reports(forge_frame("InpHT", body + bytes([0b101, 0b010])))
        with pytest.raises(WireFormatError, match="padding bits"):
            decode_reports(forge_frame("InpHT", body + bytes([0b1101, 0b010])))

    def test_set_padding_bit_past_a_two_word_column_rejected(self):
        """A 62-bit seed and a 3-bit bucket: the bucket spans the row's two
        words, and the 9-byte row pads bits 65-71."""
        reports = InpOLHReports(
            seeds=np.array([1 << 61, 5], dtype=np.int64),
            noisy_buckets=np.array([4, 1], dtype=np.int64),
        )
        frame = bytearray(reports.to_bytes())
        decoded = decode_reports(bytes(frame))
        np.testing.assert_array_equal(decoded.noisy_buckets, [4, 1])
        frame[-5] |= 0x80  # the last row's top padding bit, before the CRC
        body = payload_body(bytes(frame))
        with pytest.raises(WireFormatError, match="padding bits"):
            decode_reports(forge_frame("InpOLH", body))

    def test_retired_fixed_width_frame_rejected_readably(self):
        """A version-2 frame (unpacked <i8/<f8 columns) names both wire
        versions, on the buffer and the stream paths alike."""
        body = (
            _descriptor(0, 3)
            + _descriptor(1, 3)
            + np.zeros(3, dtype=np.int64).tobytes()
            + np.ones(3).tobytes()
        )
        v2_frame = forge_frame("InpHT", body, version=2)
        message = (
            r"wire-format version 2 \(unpacked fixed-width columns\), which "
            rf"is retired; this library speaks version {WIRE_FORMAT_VERSION}"
        )
        assert WIRE_FORMAT_VERSION == 3
        with pytest.raises(WireFormatError, match=message):
            decode_reports(v2_frame)
        with pytest.raises(WireFormatError, match=message):
            list(split_report_frames(io.BytesIO(v2_frame)))

    def test_retired_npz_frame_rejected_readably(self):
        """A version-1 frame (npz payload) names both wire versions, on the
        buffer and the stream paths alike."""
        buffer = io.BytesIO()
        np.savez(
            buffer,
            choices=np.zeros(3, dtype=np.int64),
            noisy_values=np.ones(3, dtype=np.float64),
        )
        payload = buffer.getvalue()
        v1_frame = (
            struct.pack("<4sHH", b"RPRB", 1, len(b"InpHT"))
            + b"InpHT"
            + struct.pack("<Q", len(payload))
            + payload
        )
        message = (
            r"wire-format version 1 \(npz payload\), which is retired; "
            rf"this library speaks version {WIRE_FORMAT_VERSION}"
        )
        with pytest.raises(WireFormatError, match=message):
            decode_reports(v1_frame)
        with pytest.raises(WireFormatError, match=message):
            list(split_report_frames(io.BytesIO(v1_frame)))

    def test_encode_rejects_wrong_dtype(self):
        bad = InpHTReports(
            choices=np.zeros(3, dtype=np.int32),
            noisy_values=np.ones(3, dtype=np.float64),
        )
        with pytest.raises(WireFormatError, match="dtype"):
            bad.to_bytes()

    def test_field_without_wire_dtype_rejected_at_registration(self):
        with pytest.raises(WireFormatError, match="cannot carry"):
            ReportField("counts", np.int32)

    def test_per_user_float_field_must_be_a_sign(self):
        with pytest.raises(WireFormatError, match="declared sign field"):
            ReportField("values", np.float64)
        with pytest.raises(WireFormatError, match="declared sign field"):
            ReportField("choices", np.int64, sign=True)
        ReportField("sums", np.float64, per_user=False)

    def test_encode_rejects_a_sign_that_is_not_plus_or_minus_one(self):
        bad = InpHTReports(
            choices=np.zeros(3, dtype=np.int64),
            noisy_values=np.array([1.0, -1.0, 0.5]),
        )
        with pytest.raises(WireFormatError, match="other than -1.0 or \\+1.0"):
            bad.to_bytes()

    def test_encode_rejects_a_negative_index(self):
        bad = InpHTReports(
            choices=np.array([0, -1, 2], dtype=np.int64),
            noisy_values=np.ones(3),
        )
        with pytest.raises(WireFormatError, match="negative"):
            bad.to_bytes()

    def test_unregistered_class_rejected(self):
        class Unregistered:
            pass

        with pytest.raises(WireFormatError, match="not registered"):
            encode_reports(Unregistered())

    def test_non_utf8_kind_rejected(self, frame):
        mangled = bytearray(frame)
        mangled[8] = 0xFF  # first kind byte -> invalid UTF-8 continuation
        with pytest.raises(WireFormatError, match="UTF-8"):
            decode_reports(bytes(mangled))

    def test_split_rejects_non_utf8_kind(self, frame):
        from repro.service import split_report_frames

        mangled = bytearray(frame)
        mangled[8] = 0xFF
        with pytest.raises(WireFormatError, match="UTF-8"):
            list(split_report_frames(bytes(mangled)))

    def test_split_rejects_bad_magic_mid_stream(self, frame):
        with pytest.raises(WireFormatError, match="magic"):
            list(split_report_frames(frame + b"garbage-between-frames" + frame))

    def test_split_checks_the_kind_before_the_length_on_both_paths(self):
        """A header that is wrong twice (a non-UTF-8 kind and a length past
        the frame limit) earns the same first error from a bytes buffer
        and from a stream."""
        header = (
            b"RPRB"
            + struct.pack("<HH", 3, 2)
            + b"\xff\xfe"
            + struct.pack("<Q", 2**30 + 1)
        )
        messages = []
        for source in (header, io.BytesIO(header)):
            with pytest.raises(WireFormatError, match="not valid UTF-8") as caught:
                list(split_report_frames(source))
            messages.append(str(caught.value))
        assert messages[0] == messages[1]


class TestIncrementalStreamReading:
    def test_stream_frames_read_one_at_a_time(self, dataset):
        """The stream path never slurps the whole source: after the first
        frame is yielded, only that frame's bytes have been consumed."""
        protocol = build("InpPS")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        stream = io.BytesIO(b"".join(frames))
        iterator = split_report_frames(stream)
        first = next(iterator)
        assert first == frames[0]
        assert stream.tell() == len(frames[0])
        assert list(iterator) == frames[1:]

    def test_stream_with_partial_reads(self, dataset):
        """Sockets and pipes may return short reads; _read_exact loops."""

        class TricklingStream:
            def __init__(self, data):
                self._stream = io.BytesIO(data)

            def read(self, size=-1):
                return self._stream.read(min(size, 7) if size > 0 else size)

        protocol = build("InpHT")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        recovered = list(split_report_frames(TricklingStream(b"".join(frames))))
        assert recovered == frames

    def test_truncated_stream_raises(self, dataset):
        protocol = build("InpHT")
        frame = encode_frames(protocol, dataset, None)[0]
        with pytest.raises(WireFormatError, match="truncated"):
            list(split_report_frames(io.BytesIO(frame[:-9])))

    def test_stream_with_bad_magic_raises_before_reading_lengths(self):
        with pytest.raises(WireFormatError, match="magic"):
            list(split_report_frames(io.BytesIO(b"XXXXXXXXXXXXXXXXXX")))

    def test_forged_payload_length_rejected_without_slurping(self, dataset):
        """A corrupted u64 length field must error out instead of buffering
        the remaining stream (or allocating the declared size)."""
        import struct as struct_module

        from repro.protocols.wire import MAX_PAYLOAD_BYTES

        protocol = build("InpHT")
        frame = bytearray(encode_frames(protocol, dataset, None)[0])
        length_offset = struct_module.calcsize("<4sHH") + len(b"InpHT")
        struct_module.pack_into("<Q", frame, length_offset, MAX_PAYLOAD_BYTES + 1)

        class ExplodingTail(io.BytesIO):
            """Fails the test if the reader tries to read past the header."""

            def __init__(self, data, fence):
                super().__init__(data)
                self._fence = fence

            def read(self, size=-1):
                assert self.tell() < self._fence or size <= 0 or size < 2**20, (
                    "reader requested a giant payload read"
                )
                return super().read(size)

        fence = length_offset + 8
        with pytest.raises(WireFormatError, match="frame limit"):
            list(split_report_frames(ExplodingTail(bytes(frame), fence)))
        with pytest.raises(WireFormatError, match="frame limit"):
            decode_reports(bytes(frame))
