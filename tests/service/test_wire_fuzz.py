"""Decoder fuzzing: hostile report bytes end in ``WireFormatError``.

Over every registered report kind (the nine protocols plus HH), arbitrary
payload bytes behind a valid header, a truncation at every offset and
every single-byte flip of a valid frame must each raise
:class:`WireFormatError` — never another exception, and never a silent
decode.  The flip property rests on the frame's CRC-32 (it catches every
single-byte error) behind the header checks.  Payloads forged *with* a
valid CRC reach the field parser itself: those may decode, but only into
a batch that re-encodes to the very same bytes.
"""

from __future__ import annotations

import functools
import io
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import WireFormatError
from repro.protocols.wire import WIRE_FORMAT_VERSION
from repro.server.framing import FrameDecoder
from repro.service import decode_reports, split_report_frames

from .util import (
    ALL_PROTOCOLS,
    build,
    encode_frames,
    forge_frame,
    payload_body,
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
