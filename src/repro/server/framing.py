"""Session framing for the network collection service.

The collection protocol interleaves two frame families on one TCP stream,
both sharing the report codec's length-prefixed header layout
(``magic | version u16 | kind-length u16 | kind | payload-length u64 |
payload``):

* **report frames** — magic ``b"RPRB"``, exactly the bytes produced by
  ``reports.to_bytes()`` (:mod:`repro.protocols.wire`), cut on magic,
  version and declared length alone and handed on as a receive-buffer
  view; the server parses each as it arrives (``parse_report_frame``).
* **control frames** — magic ``b"RPRC"``, a UTF-8 JSON payload (a
  ``STATE`` frame adds raw bytes after it, see below).  The
  kinds are the session protocol's verbs: ``HELLO`` (client → server, the
  spec handshake), ``OK``/``ERR`` (server → client), ``FIN`` (client →
  server, end of stream), ``ACK`` (server → client, per-connection
  frame/report counts), plus the topology tier's fan-in pair — ``PULL``
  (aggregator → collector, request stats or session state) and ``STATE``
  (collector → aggregator, the answer) — and the observability probe
  ``STATS`` (request *and* answer: ``repro watch`` sends an empty
  ``STATS``, the server answers with its stats dict plus a mergeable
  metrics snapshot, all within the generic control cap).

A ``STATE`` payload is ``u32 head length | JSON head | raw bytes``: the
head is the JSON object every other control frame carries whole, and the
raw tail is a state answer's session checkpoint (the
:meth:`~repro.service.AggregationSession.checkpoint_bytes` frame, shipped
as is), empty in a stats or oracle answer.  Only the *pulling* side
raises its decoder's ``STATE`` cap to :data:`MAX_STATE_BYTES` — every
other decoder keeps the generic :data:`MAX_CONTROL_BYTES` bound, because
a server never legitimately receives an inbound ``STATE`` frame and must
not let an unauthenticated peer make it buffer 64 MiB.

:class:`FrameDecoder` is the incremental half: TCP hands the receiver
arbitrary byte chunks, so the decoder buffers input and emits a frame only
once every one of its bytes has arrived — a frame split at *any* byte
boundary reassembles identically.  Anything structurally wrong (bad magic,
unknown version, oversized declared payload, non-JSON control payload)
raises :class:`~repro.core.exceptions.WireFormatError` immediately, before
the stream can make the decoder buffer unbounded input; so does a
``STATE`` head length past its payload.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Union

from ..core.exceptions import WireFormatError
from ..observability import get_registry, trace
from ..protocols.wire import (
    FRAME_LENGTH as _LENGTH,
    FRAME_PREFIX as _PREFIX,
    MAX_PAYLOAD_BYTES,
    REPORT_MAGIC,
    WIRE_FORMAT_VERSION,
    check_report_version,
)

__all__ = [
    "SERVER_PROTOCOL_VERSION",
    "MAX_CONTROL_BYTES",
    "MAX_STATE_BYTES",
    "REPORT_MAGIC",
    "CONTROL_MAGIC",
    "POISON_FRAME",
    "HELLO",
    "OK",
    "ERR",
    "FIN",
    "ACK",
    "PULL",
    "STATE",
    "STATS",
    "CONTROL_KINDS",
    "STATE_HEAD_LENGTH",
    "ControlMessage",
    "encode_control",
    "FrameDecoder",
]

#: Version stamp carried by every control frame.  Bump on protocol changes.
SERVER_PROTOCOL_VERSION = 2

#: Control payloads are small JSON documents (a spec, a diff, counters); a
#: declared length above this is a corrupted or hostile header.
MAX_CONTROL_BYTES = 1 << 20

#: ``STATE`` answers alone may carry a whole raw session checkpoint, so
#: decoders that *expect* them (the fan-in pull client)
#: opt into this larger — but still bounded — declared-payload cap via
#: ``FrameDecoder(max_state_bytes=MAX_STATE_BYTES)``.  Everyone else
#: keeps :data:`MAX_CONTROL_BYTES` for ``STATE`` too.
MAX_STATE_BYTES = 64 << 20

CONTROL_MAGIC = b"RPRC"

#: One deliberately malformed frame: four magic bytes matching neither
#: :data:`REPORT_MAGIC` nor :data:`CONTROL_MAGIC`, padded to a plausible
#: header length.  The load generator's poison connections send exactly
#: this, and the framing tests feed it to the decoders, so both sides of
#: the suite provably exercise the same reject-at-the-header first line
#: of defence.
POISON_FRAME = b"XXXX" + bytes(16)

HELLO = "HELLO"
OK = "OK"
ERR = "ERR"
FIN = "FIN"
ACK = "ACK"
PULL = "PULL"
STATE = "STATE"
STATS = "STATS"
CONTROL_KINDS = frozenset({HELLO, OK, ERR, FIN, ACK, PULL, STATE, STATS})

_STATE_KIND_BYTES = STATE.encode("utf-8")

#: The head-length field that opens every ``STATE`` payload.
STATE_HEAD_LENGTH = struct.Struct("<I")

_DECODE_COUNTERS = None


def _decode_counters():
    """Lazily bound decoder throughput counters on the process registry.

    Created once per process (not per decoder): decoders are per
    connection and short-lived, the counters are the long-lived series.
    """
    global _DECODE_COUNTERS
    if _DECODE_COUNTERS is None:
        registry = get_registry()
        frames = registry.counter(
            "repro_decoder_frames_total",
            "Frames decoded off the wire, by frame family.",
            labels=("type",),
        )
        _DECODE_COUNTERS = (
            registry.counter(
                "repro_decoder_bytes_total",
                "Bytes absorbed by the incremental frame decoders.",
            ),
            frames.labels(type="report"),
            frames.labels(type="control"),
        )
    return _DECODE_COUNTERS


def _encode_payload_cap(kind: str) -> int:
    """Encode-side payload bound: the *producer* of a ``STATE`` answer may
    always build one up to :data:`MAX_STATE_BYTES`; what a decoder will
    accept inbound is that decoder's own (stricter by default) choice."""
    return MAX_STATE_BYTES if kind == STATE else MAX_CONTROL_BYTES

@dataclass(frozen=True)
class ControlMessage:
    """One decoded control frame: a verb, its JSON payload and, on a
    ``STATE`` frame only, the raw bytes after the JSON head."""

    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)
    raw: bytes = b""


def encode_control(
    kind: str, payload: Dict[str, Any] = None, raw: bytes = b""
) -> bytes:
    """Serialize one control frame (``HELLO``/``OK``/``ERR``/``FIN``/``ACK``/
    ``PULL``/``STATE``/``STATS``).

    A ``STATE`` payload is the head-length field, the JSON head and then
    ``raw`` (any bytes, shipped as is); every other kind is its JSON alone
    and takes no ``raw``.
    """
    if kind not in CONTROL_KINDS:
        raise WireFormatError(
            f"unknown control kind {kind!r}; expected one of "
            f"{sorted(CONTROL_KINDS)}"
        )
    try:
        head = json.dumps(payload or {}, sort_keys=True).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise WireFormatError(
            f"control payload for {kind!r} is not JSON-serializable: {error}"
        ) from error
    if kind == STATE:
        parts = [STATE_HEAD_LENGTH.pack(len(head)), head, raw]
    elif raw:
        raise WireFormatError(
            f"only STATE frames carry raw bytes, not {kind!r}"
        )
    else:
        parts = [head]
    length = sum(len(part) for part in parts)
    payload_cap = _encode_payload_cap(kind)
    if length > payload_cap:
        raise WireFormatError(
            f"control payload for {kind!r} serializes to {length} bytes, "
            f"above the {payload_cap}-byte limit"
        )
    name = kind.encode("utf-8")
    return b"".join(
        [
            _PREFIX.pack(CONTROL_MAGIC, SERVER_PROTOCOL_VERSION, len(name)),
            name,
            _LENGTH.pack(length),
            *parts,
        ]
    )


def _refuse_length(length: int, cap: int) -> None:
    raise WireFormatError(
        f"frame declares a {length}-byte payload, above the {cap}-byte "
        f"limit — corrupted length field?"
    )


class FrameDecoder:
    """Reassemble control and report frames from arbitrary byte chunks.

    The zero-copy incremental decoder: chunks are appended to one growable
    ``bytearray`` and frames are parsed *in place* behind an advancing head
    offset — no per-``read()`` ``bytes`` coercion and no per-frame prefix
    deletion (the old decoder's ``del buffer[:consumed]`` memmoved the
    whole tail for every frame).  Consumed bytes are reclaimed lazily: the
    buffer is compacted only when the dead prefix reaches half the buffer,
    which keeps reclamation amortised O(1) per byte.

    Two consumption styles:

    * :meth:`feed` — the compatible API: absorb a chunk and return every
      completed frame, report frames as owned ``bytes`` copies.
    * :meth:`absorb` + :meth:`frames` — the server's fast path: absorb a
      chunk, then iterate frames with report frames as ``memoryview``\\ s
      into the receive buffer.  Views handed out stay valid across later
      absorbs (compaction rebuilds rather than resizes the exported
      buffer), but decode-or-copy promptly: a live view pins its whole
      backing buffer in memory.

    Control frames come back parsed into :class:`ControlMessage` either
    way.  ``max_frame_bytes`` bounds the declared payload of report frames
    (the server's backpressure knob — a connection can never force the
    decoder to buffer more than one maximal frame plus one read chunk);
    control frames are capped at :data:`MAX_CONTROL_BYTES`, including
    ``STATE`` by default — only an endpoint that *expects* checkpoint-
    carrying ``STATE`` answers (the fan-in pull client) should raise
    ``max_state_bytes`` to :data:`MAX_STATE_BYTES`, so a hostile client
    cannot make a server buffer a 64 MiB "checkpoint" it never asked for.

    A structural error poisons the decoder: the stream position is no
    longer trustworthy, so every later :meth:`feed`/:meth:`absorb`
    re-raises.
    """

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
        self._head = 0
        self._error: WireFormatError = None

    @property
    def buffered_bytes(self) -> int:
        """Bytes held back waiting for the rest of a frame."""
        return len(self._buffer) - self._head

    @property
    def at_frame_boundary(self) -> bool:
        """True when no partial frame is pending (a clean stream end)."""
        return self._head == len(self._buffer)

    def absorb(self, data: Union[bytes, bytearray, memoryview]) -> None:
        """Append one received chunk to the buffer (no parsing, no copy).

        Iterate :meth:`frames` afterwards to drain the completed frames.
        """
        if self._error is not None:
            raise self._error
        with trace.span("framing.absorb") as span:
            span.annotate(bytes=len(data))
            self._absorb(data)
        _decode_counters()[0].inc(len(data))

    def _absorb(self, data: Union[bytes, bytearray, memoryview]) -> None:
        buffer = self._buffer
        head = self._head
        if head:
            if head == len(buffer):
                # Everything consumed: restart on a fresh buffer.  Rebuild
                # instead of clearing in place so report views handed out
                # earlier (backed by the old object) stay valid.
                self._buffer = buffer = bytearray()
                self._head = 0
            elif head * 2 >= len(buffer):
                # The dead prefix dominates: compact by rebuilding from the
                # live tail (again never resizing the exported old object).
                self._buffer = buffer = bytearray(memoryview(buffer)[head:])
                self._head = 0
        try:
            buffer += data
        except BufferError:
            # A report view from a previous round is still alive, pinning
            # the bytearray against resize.  Shift to a copy; the old
            # object survives for as long as those views need it.
            buffer = bytearray(buffer)
            buffer += data
            self._buffer = buffer

    def frames(self) -> Iterator[Union[ControlMessage, memoryview]]:
        """Yield every frame completed so far (in order), zero-copy.

        Report frames are ``memoryview``\\ s into the receive buffer —
        decode or copy each one promptly (see the class docstring).
        Control frames are parsed :class:`ControlMessage` objects.  A
        structural error raises mid-iteration and poisons the decoder.
        A report frame is cut on its magic, version and length cap alone,
        and the frame counters advance once per call.
        """
        if self._error is not None:
            raise self._error
        buffer = None
        reports = controls = 0
        try:
            while True:
                if self._buffer is not buffer:  # first pass, or absorbed into a new one
                    buffer = self._buffer
                    view = memoryview(buffer)
                    size = len(buffer)
                head = self._head
                if size - head < _PREFIX.size:
                    return
                magic, version, kind_length = _PREFIX.unpack_from(buffer, head)
                if magic != REPORT_MAGIC or version != WIRE_FORMAT_VERSION:
                    item = self._next_control(magic, version, kind_length)
                    if item is None:
                        return
                    controls += 1
                    yield item
                    continue
                header_end = head + _PREFIX.size + kind_length + _LENGTH.size
                if size < header_end:
                    return
                (length,) = _LENGTH.unpack_from(buffer, header_end - _LENGTH.size)
                if length > self._max_frame_bytes:
                    _refuse_length(length, self._max_frame_bytes)
                frame_end = header_end + length
                if size < frame_end:
                    return
                self._head = frame_end
                reports += 1
                yield view[head:frame_end]
        except WireFormatError as error:
            self._error = error
            raise
        finally:
            _, report_counter, control_counter = _decode_counters()
            if reports:
                report_counter.inc(reports)
            if controls:
                control_counter.inc(controls)

    def feed(
        self, data: Union[bytes, bytearray, memoryview]
    ) -> List[Union[ControlMessage, bytes]]:
        """Absorb one chunk; return every frame completed by it (in order).

        The compatibility API: report frames come back as owned ``bytes``
        copies, safe to hold indefinitely.
        """
        self.absorb(data)
        return [
            bytes(item) if isinstance(item, memoryview) else item
            for item in self.frames()
        ]

    def _next_control(self, magic: bytes, version: int, kind_length: int):
        """Cut and parse the control frame at the head offset (``None``
        until it is whole); refuse a retired report version or a magic
        that is neither frame family's."""
        if magic == REPORT_MAGIC:
            check_report_version(version)
        elif magic != CONTROL_MAGIC:
            raise WireFormatError(
                f"stream does not hold a collection frame (magic {bytes(magic)!r}, "
                f"expected {REPORT_MAGIC!r} or {CONTROL_MAGIC!r})"
            )
        elif version != SERVER_PROTOCOL_VERSION:
            raise WireFormatError(
                f"control frame uses version {version}, but this library "
                f"speaks version {SERVER_PROTOCOL_VERSION}"
            )
        buffer, head = self._buffer, self._head
        kind_start = head + _PREFIX.size
        header_end = kind_start + kind_length + _LENGTH.size
        if len(buffer) < header_end:
            return None
        # The kind bytes are buffered whenever the length is: STATE frames
        # may carry checkpoints, the rest are small JSON.
        state = buffer[kind_start : kind_start + kind_length] == _STATE_KIND_BYTES
        cap = self._max_state_bytes if state else MAX_CONTROL_BYTES
        (length,) = _LENGTH.unpack_from(buffer, header_end - _LENGTH.size)
        if length > cap:
            _refuse_length(length, cap)
        frame_end = header_end + length
        if len(buffer) < frame_end:
            return None
        self._head = frame_end
        try:
            kind = bytes(buffer[kind_start : kind_start + kind_length]).decode("utf-8")
        except UnicodeDecodeError as error:
            raise WireFormatError(
                f"control frame kind is not valid UTF-8: {error}"
            ) from error
        if kind not in CONTROL_KINDS:
            raise WireFormatError(
                f"unknown control kind {kind!r}; expected one of "
                f"{sorted(CONTROL_KINDS)}"
            )
        body = memoryview(buffer)[header_end:frame_end]
        raw = b""
        if kind == STATE:
            if len(body) < STATE_HEAD_LENGTH.size:
                raise WireFormatError(
                    f"STATE payload of {len(body)} byte(s) is too short for "
                    "its head-length field"
                )
            (head_length,) = STATE_HEAD_LENGTH.unpack_from(body)
            head_end = STATE_HEAD_LENGTH.size + head_length
            if head_end > len(body):
                raise WireFormatError(
                    f"STATE head declares {head_length} byte(s), past the "
                    f"{len(body)}-byte payload"
                )
            raw = bytes(body[head_end:])
            body = body[STATE_HEAD_LENGTH.size : head_end]
        try:
            payload = json.loads(bytes(body).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise WireFormatError(
                f"control frame {kind!r} payload is not valid JSON: {error}"
            ) from error
        if not isinstance(payload, dict):
            raise WireFormatError(
                f"control frame {kind!r} payload must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        return ControlMessage(kind=kind, payload=payload, raw=raw)
