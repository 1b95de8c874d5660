"""FrameDecoder and control-frame codec: reassembly and rejection.

The satellite acceptance bar: wire frames split at *every* byte boundary
reassemble identically through the incremental decoder, and truncated or
corrupted mid-stream frames raise ``WireFormatError`` immediately instead
of buffering unbounded garbage.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from repro.core.exceptions import WireFormatError
from repro.server.framing import (
    ACK,
    CONTROL_KINDS,
    ERR,
    FIN,
    HELLO,
    MAX_CONTROL_BYTES,
    MAX_STATE_BYTES,
    OK,
    POISON_FRAME,
    PULL,
    SERVER_PROTOCOL_VERSION,
    STATE,
    ControlMessage,
    FrameDecoder,
    encode_control,
)
from repro.protocols.wire import WIRE_FORMAT_VERSION

from ..service.util import build, encode_frames, small_dataset
from .reference_decoder import FrameDecoderReference


@pytest.fixture(scope="module")
def report_frames():
    """Two real InpHT report frames (different batch sizes)."""
    return encode_frames(build("InpHT"), small_dataset(n=48, d=4), 24)


@pytest.fixture(scope="module")
def mixed_stream(report_frames):
    """A full session byte stream: HELLO, two report frames, FIN."""
    items = [
        ControlMessage(HELLO, {"spec": {"protocol": "InpHT"}, "attributes": []}),
        report_frames[0],
        report_frames[1],
        ControlMessage(FIN, {}),
    ]
    stream = b"".join(
        encode_control(item.kind, item.payload)
        if isinstance(item, ControlMessage)
        else item
        for item in items
    )
    return stream, items


def _assert_items_equal(observed, expected):
    assert len(observed) == len(expected)
    for seen, wanted in zip(observed, expected):
        if isinstance(wanted, ControlMessage):
            assert isinstance(seen, ControlMessage)
            assert seen.kind == wanted.kind
            assert seen.payload == wanted.payload
        else:
            assert isinstance(seen, bytes)
            assert seen == wanted


class TestControlCodec:
    @pytest.mark.parametrize("kind", sorted(CONTROL_KINDS))
    def test_round_trip(self, kind):
        payload = {"value": 7, "nested": {"list": [1, 2, 3]}}
        decoder = FrameDecoder()
        (message,) = decoder.feed(encode_control(kind, payload))
        assert message == ControlMessage(kind, payload)
        assert decoder.at_frame_boundary

    def test_empty_payload_defaults_to_object(self):
        decoder = FrameDecoder()
        (message,) = decoder.feed(encode_control(FIN))
        assert message == ControlMessage(FIN, {})

    def test_unknown_kind_rejected_on_encode(self):
        with pytest.raises(WireFormatError, match="unknown control kind"):
            encode_control("NOPE", {})

    def test_unserializable_payload_rejected(self):
        with pytest.raises(WireFormatError, match="not JSON-serializable"):
            encode_control(OK, {"oops": object()})


class TestReassembly:
    def test_whole_stream_at_once(self, mixed_stream):
        stream, expected = mixed_stream
        decoder = FrameDecoder()
        _assert_items_equal(decoder.feed(stream), expected)
        assert decoder.at_frame_boundary

    def test_byte_at_a_time(self, mixed_stream):
        """Feeding single bytes crosses every split boundary in the stream."""
        stream, expected = mixed_stream
        decoder = FrameDecoder()
        observed = []
        for position in range(len(stream)):
            observed.extend(decoder.feed(stream[position : position + 1]))
        _assert_items_equal(observed, expected)
        assert decoder.at_frame_boundary

    def test_every_two_part_split(self, report_frames):
        """One frame cut at every byte offset reassembles identically."""
        frame = report_frames[0]
        for split in range(len(frame) + 1):
            decoder = FrameDecoder()
            observed = decoder.feed(frame[:split])
            observed += decoder.feed(frame[split:])
            assert observed == [frame], f"split at byte {split}"

    def test_random_chunkings(self, mixed_stream):
        stream, expected = mixed_stream
        rng = np.random.default_rng(7)
        for _ in range(25):
            decoder = FrameDecoder()
            observed = []
            position = 0
            while position < len(stream):
                step = int(rng.integers(1, 4096))
                observed.extend(decoder.feed(stream[position : position + step]))
                position += step
            _assert_items_equal(observed, expected)

    def test_partial_frame_stays_buffered(self, report_frames):
        frame = report_frames[0]
        decoder = FrameDecoder()
        assert decoder.feed(frame[:-1]) == []
        assert not decoder.at_frame_boundary
        assert decoder.buffered_bytes == len(frame) - 1
        assert decoder.feed(frame[-1:]) == [frame]
        assert decoder.at_frame_boundary


class TestRejection:
    def test_bad_magic(self):
        # POISON_FRAME is the exact garbage LoadGenerator's poison
        # connections send, so this is the server-side rejection in vitro.
        decoder = FrameDecoder()
        with pytest.raises(WireFormatError, match="magic"):
            decoder.feed(POISON_FRAME)

    def test_bad_magic_mid_stream(self, report_frames):
        """Corruption raises even when a complete frame precedes it.

        The whole chunk is condemned: a connection whose stream corrupts is
        rejected, and frames without an ACK carry no delivery guarantee.
        """
        decoder = FrameDecoder()
        with pytest.raises(WireFormatError, match="magic"):
            decoder.feed(report_frames[0] + b"GARBAGEG")
        good = FrameDecoder().feed(report_frames[0])
        assert good == [report_frames[0]]

    def test_wrong_report_version(self, report_frames):
        frame = bytearray(report_frames[0])
        frame[4] ^= 0xFF  # version u16 little-endian low byte
        decoder = FrameDecoder()
        with pytest.raises(WireFormatError, match="version"):
            decoder.feed(bytes(frame))

    def test_retired_npz_report_version_named(self, report_frames):
        """A version-1 (npz payload) frame is refused at its prefix, by
        both decoders alike, with a message naming both versions."""
        frame = bytearray(report_frames[0])
        struct.pack_into("<H", frame, 4, 1)
        messages = []
        for decoder in (FrameDecoder(), FrameDecoderReference()):
            with pytest.raises(WireFormatError) as error:
                decoder.feed(bytes(frame[:8]))
            messages.append(str(error.value))
        assert messages[0] == messages[1]
        assert "version 1 (npz payload)" in messages[0]
        assert f"speaks version {WIRE_FORMAT_VERSION}" in messages[0]

    def test_wrong_control_version(self):
        frame = bytearray(encode_control(OK, {}))
        frame[4] ^= 0xFF
        decoder = FrameDecoder()
        with pytest.raises(WireFormatError, match="version"):
            decoder.feed(bytes(frame))

    def test_oversized_report_payload_rejected_early(self):
        """A forged length field fails before any payload arrives."""
        kind = b"InpHT"
        header = (
            struct.pack("<4sHH", b"RPRB", WIRE_FORMAT_VERSION, len(kind))
            + kind
            + struct.pack("<Q", 1 << 40)
        )
        decoder = FrameDecoder(max_frame_bytes=1 << 20)
        with pytest.raises(WireFormatError, match="limit"):
            decoder.feed(header)

    def test_oversized_control_payload_rejected_early(self):
        kind = b"HELLO"
        header = (
            struct.pack("<4sHH", b"RPRC", SERVER_PROTOCOL_VERSION, len(kind))
            + kind
            + struct.pack("<Q", MAX_CONTROL_BYTES + 1)
        )
        decoder = FrameDecoder()
        with pytest.raises(WireFormatError, match="limit"):
            decoder.feed(header)

    def test_non_json_control_payload(self):
        frame = bytearray(encode_control(ACK, {"frames": 1}))
        frame[-6:] = b"not-js"
        decoder = FrameDecoder()
        with pytest.raises(WireFormatError, match="JSON"):
            decoder.feed(bytes(frame))

    def test_non_object_control_payload(self):
        body = json.dumps([1, 2, 3]).encode()
        kind = b"ACK"
        frame = (
            struct.pack("<4sHH", b"RPRC", SERVER_PROTOCOL_VERSION, len(kind))
            + kind
            + struct.pack("<Q", len(body))
            + body
        )
        decoder = FrameDecoder()
        with pytest.raises(WireFormatError, match="JSON object"):
            decoder.feed(frame)

    def test_unknown_control_kind(self):
        body = b"{}"
        kind = b"WHAT"
        frame = (
            struct.pack("<4sHH", b"RPRC", SERVER_PROTOCOL_VERSION, len(kind))
            + kind
            + struct.pack("<Q", len(body))
            + body
        )
        decoder = FrameDecoder()
        with pytest.raises(WireFormatError, match="unknown control kind"):
            decoder.feed(frame)

    def test_poisoned_decoder_stays_poisoned(self, report_frames):
        decoder = FrameDecoder()
        with pytest.raises(WireFormatError):
            decoder.feed(POISON_FRAME)
        with pytest.raises(WireFormatError):
            decoder.feed(report_frames[0])

    def test_bad_max_frame_bytes(self):
        with pytest.raises(WireFormatError, match="max_frame_bytes"):
            FrameDecoder(max_frame_bytes=0)


def _materialize(item):
    """Normalize a decoded item for cross-decoder comparison."""
    if isinstance(item, memoryview):
        return bytes(item)
    return item


def _drain_pair(fast, reference, chunk):
    """Feed one chunk to both decoders, returning (items, items).

    Raises whatever either decoder raises; the caller asserts the two
    failure modes agree.
    """
    fast.absorb(chunk)
    observed = [_materialize(item) for item in fast.frames()]
    expected = reference.feed(chunk)
    return observed, expected


class TestReferenceConformance:
    """The zero-copy decoder is byte-for-byte the old (reference) decoder.

    ``FrameDecoderReference`` (``reference_decoder.py``) is the
    pre-optimization implementation kept as ground truth; these properties
    prove the head-offset / lazy-compaction rewrite changes nothing
    observable.
    """

    def test_byte_at_a_time_equivalence(self, mixed_stream):
        """Single-byte feeds cross every split boundary in the stream."""
        stream, _ = mixed_stream
        fast, reference = FrameDecoder(), FrameDecoderReference()
        for position in range(len(stream)):
            chunk = stream[position : position + 1]
            observed, expected = _drain_pair(fast, reference, chunk)
            assert observed == expected
            assert fast.buffered_bytes == reference.buffered_bytes
            assert fast.at_frame_boundary == reference.at_frame_boundary

    def test_every_two_part_split_equivalence(self, report_frames):
        frame = report_frames[0]
        for split in range(len(frame) + 1):
            fast, reference = FrameDecoder(), FrameDecoderReference()
            for chunk in (frame[:split], frame[split:]):
                observed, expected = _drain_pair(fast, reference, chunk)
                assert observed == expected, f"split at byte {split}"

    def test_random_chunkings_equivalence(self, mixed_stream):
        """Interleaved control/report frames under arbitrary fragmentation."""
        stream, _ = mixed_stream
        rng = np.random.default_rng(20180610)
        for _ in range(25):
            fast, reference = FrameDecoder(), FrameDecoderReference()
            position = 0
            while position < len(stream):
                step = int(rng.integers(1, 1024))
                chunk = stream[position : position + step]
                observed, expected = _drain_pair(fast, reference, chunk)
                assert observed == expected
                assert fast.buffered_bytes == reference.buffered_bytes
                position += step

    def test_oversized_frame_rejection_parity(self):
        kind = b"InpHT"
        header = (
            struct.pack("<4sHH", b"RPRB", WIRE_FORMAT_VERSION, len(kind))
            + kind
            + struct.pack("<Q", 1 << 40)
        )
        fast = FrameDecoder(max_frame_bytes=1 << 20)
        reference = FrameDecoderReference(max_frame_bytes=1 << 20)
        with pytest.raises(WireFormatError) as fast_error:
            fast.absorb(header)
            list(fast.frames())
        with pytest.raises(WireFormatError) as reference_error:
            reference.feed(header)
        assert str(fast_error.value) == str(reference_error.value)

    def test_poisoning_parity(self, report_frames):
        fast, reference = FrameDecoder(), FrameDecoderReference()
        bad = POISON_FRAME
        with pytest.raises(WireFormatError) as fast_error:
            _drain_pair(fast, reference, bad)
        with pytest.raises(WireFormatError) as reference_error:
            reference.feed(bad)
        assert str(fast_error.value) == str(reference_error.value)
        for decoder in (fast, reference):
            with pytest.raises(WireFormatError):
                decoder.feed(report_frames[0])

    def test_absorb_frames_yields_zero_copy_views(self, report_frames):
        """The fast path hands out memoryviews over the internal buffer."""
        frame = report_frames[0]
        decoder = FrameDecoder()
        decoder.absorb(frame)
        (item,) = list(decoder.frames())
        assert isinstance(item, memoryview)
        assert bytes(item) == frame

    def test_feed_still_returns_bytes(self, report_frames):
        """The compatibility wrapper keeps the old bytes-based contract."""
        decoder = FrameDecoder()
        (item,) = decoder.feed(report_frames[0])
        assert isinstance(item, bytes)


class TestDecodedFramesStillDecode:
    def test_report_frame_passthrough_is_bitwise(self, report_frames):
        """The decoder relays report frames byte-identically, so the wire
        codec decodes them exactly as if they never crossed a socket."""
        protocol = build("InpHT")
        decoder = FrameDecoder()
        for frame in report_frames:
            (relayed,) = decoder.feed(frame)
            assert relayed == frame
            reports = protocol.decode_reports(relayed)
            assert reports.num_users > 0


class TestPullStateConformance:
    """Satellite: the conformance replay extended to the fan-in frames.

    ``PULL``/``STATE`` reuse the report codec's header layout but STATE
    answers carry base64 session checkpoints that can exceed the generic
    control cap — a kind-dependent limit the zero-copy and reference
    decoders must apply identically at every split boundary.
    """

    @pytest.fixture(scope="class")
    def pull_state_stream(self):
        """A full fan-in exchange: state pull, stats pull, answers."""
        import base64

        blob = base64.b64encode(bytes(range(256)) * 16).decode("ascii")
        items = [
            ControlMessage(PULL, {"what": "state"}),
            ControlMessage(
                STATE,
                {
                    "what": "state",
                    "collector_id": "c1",
                    "acked_tokens": {"load/c0/g0": {"frames": 2, "reports": 64}},
                    "state_b64": blob,
                },
            ),
            ControlMessage(PULL, {"what": "stats"}),
            ControlMessage(STATE, {"what": "stats", "stats": {"reports": 64}}),
        ]
        stream = b"".join(
            encode_control(item.kind, item.payload) for item in items
        )
        return stream, items

    def test_pull_state_round_trip(self, pull_state_stream):
        stream, items = pull_state_stream
        decoder = FrameDecoder()
        _assert_items_equal(decoder.feed(stream), items)
        assert decoder.at_frame_boundary

    def test_byte_at_a_time_equivalence(self, pull_state_stream):
        stream, items = pull_state_stream
        fast, reference = FrameDecoder(), FrameDecoderReference()
        collected = []
        for position in range(len(stream)):
            chunk = stream[position : position + 1]
            observed, expected = _drain_pair(fast, reference, chunk)
            assert observed == expected
            assert fast.buffered_bytes == reference.buffered_bytes
            assert fast.at_frame_boundary == reference.at_frame_boundary
            collected.extend(observed)
        _assert_items_equal(collected, items)

    def test_random_chunkings_equivalence(self, pull_state_stream):
        stream, items = pull_state_stream
        rng = np.random.default_rng(20180610)
        for _ in range(25):
            fast, reference = FrameDecoder(), FrameDecoderReference()
            collected = []
            position = 0
            while position < len(stream):
                step = int(rng.integers(1, 256))
                chunk = stream[position : position + step]
                observed, expected = _drain_pair(fast, reference, chunk)
                assert observed == expected
                assert fast.buffered_bytes == reference.buffered_bytes
                collected.extend(observed)
                position += step
            _assert_items_equal(collected, items)

    def test_state_exceeding_control_cap_accepted(self):
        """A decoder that opts into MAX_STATE_BYTES (the pull client's
        shape) accepts a STATE answer past the generic control cap — an
        equally large generic control frame is still rejected — and the
        two decoders agree at every split boundary."""
        oversized = "x" * (MAX_CONTROL_BYTES + 1024)
        state = encode_control(STATE, {"state_b64": oversized})
        assert len(state) > MAX_CONTROL_BYTES
        rng = np.random.default_rng(7)
        for _ in range(5):
            fast = FrameDecoder(max_state_bytes=MAX_STATE_BYTES)
            reference = FrameDecoderReference(max_state_bytes=MAX_STATE_BYTES)
            collected = []
            position = 0
            while position < len(state):
                step = int(rng.integers(1, 1 << 18))
                chunk = state[position : position + step]
                observed, expected = _drain_pair(fast, reference, chunk)
                assert observed == expected
                collected.extend(observed)
                position += step
            assert len(collected) == 1
            assert collected[0].payload["state_b64"] == oversized

    def test_oversized_generic_control_rejection_parity(self):
        """The same payload under kind OK trips the generic cap in both
        decoders with the same message (encode-side refuses to build it,
        so the wire bytes are forged by patching the kind)."""
        oversized = "x" * (MAX_CONTROL_BYTES + 1024)
        with pytest.raises(WireFormatError, match="control payload"):
            encode_control(OK, {"state_b64": oversized})
        state = encode_control(STATE, {"state_b64": oversized})
        kind_start = struct.calcsize("<4sHH")
        forged = (
            state[:kind_start]
            + b"OK" + b"   "
            + state[kind_start + len(STATE) :]
        )
        # Keep the kind-length field honest for the forged 5-byte kind.
        forged = (
            struct.pack("<4sHH", forged[:4], SERVER_PROTOCOL_VERSION, 5)
            + forged[kind_start:]
        )
        fast, reference = FrameDecoder(), FrameDecoderReference()
        with pytest.raises(WireFormatError) as fast_error:
            fast.absorb(forged)
            list(fast.frames())
        with pytest.raises(WireFormatError) as reference_error:
            reference.feed(forged)
        assert str(fast_error.value) == str(reference_error.value)

    def test_oversized_state_still_capped(self):
        """STATE is capped too — at MAX_STATE_BYTES — even in decoders
        that opted into the larger cap."""
        kind = STATE.encode("ascii")
        header = (
            struct.pack("<4sHH", b"RPRC", SERVER_PROTOCOL_VERSION, len(kind))
            + kind
            + struct.pack("<Q", MAX_STATE_BYTES + 1)
        )
        fast = FrameDecoder(max_state_bytes=MAX_STATE_BYTES)
        reference = FrameDecoderReference(max_state_bytes=MAX_STATE_BYTES)
        with pytest.raises(WireFormatError) as fast_error:
            fast.absorb(header)
            list(fast.frames())
        with pytest.raises(WireFormatError) as reference_error:
            reference.feed(header)
        assert str(fast_error.value) == str(reference_error.value)

    def test_default_decoder_rejects_oversized_state(self):
        """Server-side decoders never expect inbound STATE frames, so by
        default STATE rides the generic 1 MiB control cap: a hostile
        client cannot make a server buffer a 64 MiB \"checkpoint\"."""
        oversized = "x" * (MAX_CONTROL_BYTES + 1024)
        state = encode_control(STATE, {"state_b64": oversized})
        fast, reference = FrameDecoder(), FrameDecoderReference()
        with pytest.raises(WireFormatError) as fast_error:
            fast.absorb(state)
            list(fast.frames())
        with pytest.raises(WireFormatError) as reference_error:
            reference.feed(state)
        assert str(fast_error.value) == str(reference_error.value)
        assert str(MAX_CONTROL_BYTES) in str(fast_error.value)

    @pytest.mark.parametrize(
        "bad", [0, MAX_CONTROL_BYTES - 1, MAX_STATE_BYTES + 1]
    )
    def test_state_cap_out_of_range_rejected(self, bad):
        for decoder_class in (FrameDecoder, FrameDecoderReference):
            with pytest.raises(WireFormatError, match="max_state_bytes"):
                decoder_class(max_state_bytes=bad)
