"""The pre-zero-copy frame decoder, kept as a test oracle.

:class:`FrameDecoderReference` is the session-frame decoder as it first
shipped: it re-coerces every chunk to ``bytes``, deletes each consumed
frame's prefix eagerly, and copies every report frame out of the buffer.
The conformance suite in ``test_framing.py`` proves the zero-copy
:class:`~repro.server.framing.FrameDecoder` equivalent to it (every-byte
splits, interleaved control/report frames, rejection behaviour).  Its one
change since then is the report-version check, which it shares with the
library through :func:`~repro.protocols.wire.check_report_version`.
"""

from __future__ import annotations

import json
from typing import List, Union

from repro.core.exceptions import WireFormatError
from repro.protocols.wire import (
    FRAME_LENGTH as _LENGTH,
    FRAME_PREFIX as _PREFIX,
    MAX_PAYLOAD_BYTES,
    check_report_version,
)
from repro.server.framing import (
    CONTROL_KINDS,
    CONTROL_MAGIC,
    MAX_CONTROL_BYTES,
    MAX_STATE_BYTES,
    REPORT_MAGIC,
    SERVER_PROTOCOL_VERSION,
    STATE,
    ControlMessage,
)

_STATE_KIND_BYTES = STATE.encode("utf-8")


class FrameDecoderReference:
    """Reassemble control and report frames the simple, copying way."""

    def __init__(
        self,
        max_frame_bytes: int = MAX_PAYLOAD_BYTES,
        *,
        max_state_bytes: int = MAX_CONTROL_BYTES,
    ):
        if not 0 < max_frame_bytes <= MAX_PAYLOAD_BYTES:
            raise WireFormatError(
                f"max_frame_bytes must be in (0, {MAX_PAYLOAD_BYTES}], "
                f"got {max_frame_bytes}"
            )
        if not MAX_CONTROL_BYTES <= max_state_bytes <= MAX_STATE_BYTES:
            raise WireFormatError(
                f"max_state_bytes must be in [{MAX_CONTROL_BYTES}, "
                f"{MAX_STATE_BYTES}], got {max_state_bytes}"
            )
        self._max_frame_bytes = int(max_frame_bytes)
        self._max_state_bytes = int(max_state_bytes)
        self._buffer = bytearray()
        self._error: WireFormatError = None

    @property
    def buffered_bytes(self) -> int:
        """Bytes held back waiting for the rest of a frame."""
        return len(self._buffer)

    @property
    def at_frame_boundary(self) -> bool:
        """True when no partial frame is pending (a clean stream end)."""
        return not self._buffer

    def feed(
        self, data: Union[bytes, bytearray, memoryview]
    ) -> List[Union[ControlMessage, bytes]]:
        """Absorb one chunk; return every frame completed by it (in order)."""
        if self._error is not None:
            raise self._error
        self._buffer += bytes(data)
        frames: List[Union[ControlMessage, bytes]] = []
        try:
            while True:
                item, consumed = self._next_frame()
                if item is None:
                    break
                del self._buffer[:consumed]
                frames.append(item)
        except WireFormatError as error:
            self._error = error
            raise
        return frames

    def _next_frame(self):
        """Parse one complete frame off the buffer head, or ``(None, 0)``."""
        buffer = self._buffer
        if len(buffer) < _PREFIX.size:
            return None, 0
        magic, version, kind_length = _PREFIX.unpack_from(buffer, 0)
        if magic == REPORT_MAGIC:
            check_report_version(version)
        elif magic == CONTROL_MAGIC:
            if version != SERVER_PROTOCOL_VERSION:
                raise WireFormatError(
                    f"control frame uses version {version}, but this library "
                    f"speaks version {SERVER_PROTOCOL_VERSION}"
                )
        else:
            raise WireFormatError(
                f"stream does not hold a collection frame (magic {bytes(magic)!r}, "
                f"expected {REPORT_MAGIC!r} or {CONTROL_MAGIC!r})"
            )
        header_end = _PREFIX.size + kind_length + _LENGTH.size
        if len(buffer) < header_end:
            return None, 0
        if magic == REPORT_MAGIC:
            payload_cap = self._max_frame_bytes
        else:
            kind_start = _PREFIX.size
            payload_cap = (
                self._max_state_bytes
                if bytes(buffer[kind_start : kind_start + kind_length])
                == _STATE_KIND_BYTES
                else MAX_CONTROL_BYTES
            )
        (payload_length,) = _LENGTH.unpack_from(buffer, _PREFIX.size + kind_length)
        if payload_length > payload_cap:
            raise WireFormatError(
                f"frame declares a {payload_length}-byte payload, above the "
                f"{payload_cap}-byte limit — corrupted length field?"
            )
        frame_end = header_end + payload_length
        if len(buffer) < frame_end:
            return None, 0
        if magic == REPORT_MAGIC:
            return bytes(buffer[:frame_end]), frame_end
        return self._parse_control(kind_length, header_end, frame_end), frame_end

    def _parse_control(
        self, kind_length: int, header_end: int, frame_end: int
    ) -> ControlMessage:
        kind_start = _PREFIX.size
        try:
            kind = bytes(
                self._buffer[kind_start : kind_start + kind_length]
            ).decode("utf-8")
        except UnicodeDecodeError as error:
            raise WireFormatError(
                f"control frame kind is not valid UTF-8: {error}"
            ) from error
        if kind not in CONTROL_KINDS:
            raise WireFormatError(
                f"unknown control kind {kind!r}; expected one of "
                f"{sorted(CONTROL_KINDS)}"
            )
        body = bytes(self._buffer[header_end:frame_end])
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise WireFormatError(
                f"control frame {kind!r} payload is not valid JSON: {error}"
            ) from error
        if not isinstance(payload, dict):
            raise WireFormatError(
                f"control frame {kind!r} payload must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        return ControlMessage(kind=kind, payload=payload)
