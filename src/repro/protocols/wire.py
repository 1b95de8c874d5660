"""Byte-level wire codec for protocol report batches.

The streaming pipeline moves report batches between the client-side
:meth:`~repro.protocols.base.MarginalReleaseProtocol.encode_batch` and the
aggregator-side :class:`~repro.protocols.base.Accumulator` as in-memory
dataclasses.  This module gives every one of those dataclasses a portable
byte form so reports can cross process and machine boundaries without
pickle: each protocol registers a :class:`ReportSchema` describing its
report fields (name, dtype, rank), and the codec packs them into a
self-describing *frame* (wire-format version 2)::

    offset  size  content
    0       4     magic  b"RPRB"
    4       2     wire-format version (little-endian u16)
    6       2     report-kind length L (little-endian u16)
    8       L     report kind, UTF-8 (the protocol name, e.g. b"InpHT")
    8 + L   8     payload length P (little-endian u64)
    16 + L  P     payload, laid out by the kind's schema (below)

The payload is a fixed layout with every integer little-endian::

    size          content
    per array field, in schema order — its descriptor:
      1           dtype code: 0 = <i8, 1 = <f8, 2 = |i1
      1           rank n
      8 * n       shape, one u64 per axis
    per scalar field, in schema order:
      8           value (i64)
    per array field, in schema order:
      prod(shape) * itemsize
                  the array's C-order little-endian element buffer
    4             CRC-32 (``zlib.crc32``) of every frame byte before it,
                  header included

Frames are length-prefixed, so any number of them can be concatenated on a
byte stream (that is what ``repro encode | repro aggregate`` pipes) and
split back apart with :func:`iter_report_frames`.  Decoding validates the
magic, the version (a retired version-1 frame, whose payload was an
``.npz`` archive, gets an error naming both versions), the kind, the
CRC-32, every field's dtype, rank and shape against the bytes that remain,
the cross-field row consistency, non-negative scalars and the absence of
trailing bytes before the batch reaches an accumulator; anything off raises
:class:`~repro.core.exceptions.WireFormatError` instead of corrupting the
aggregation.  The CRC-32 catches every single-byte corruption of a frame.

Each array travels verbatim (dtype, shape and values), so an encode →
``to_bytes`` → ``from_bytes`` → aggregate round trip is bit-for-bit
identical to handing the in-memory batch straight to the accumulator.
Decoding reads each array with ``np.frombuffer`` straight off the input
buffer and copies it out, so a decoded batch never pins the buffer it came
from (the server decodes off its receive buffer).
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Dict, Iterator, Tuple, Union

import numpy as np

from ..core.exceptions import WireFormatError

__all__ = [
    "WIRE_FORMAT_VERSION",
    "MAX_PAYLOAD_BYTES",
    "REPORT_MAGIC",
    "FRAME_PREFIX",
    "FRAME_LENGTH",
    "ReportField",
    "ReportSchema",
    "WireCodableReports",
    "available_report_kinds",
    "register_report_schema",
    "report_schema_for",
    "encode_reports",
    "decode_reports",
    "concat_report_batches",
    "check_report_version",
    "iter_report_frames",
    "split_report_frames",
]

#: Version stamp written into every frame header.  Bump on any layout change.
WIRE_FORMAT_VERSION = 2

#: The retired layout whose payload was an ``.npz`` archive.
_NPZ_WIRE_VERSION = 1

#: Hard per-frame payload limit (1 GiB), enforced on encode and decode.  A
#: real report batch is orders of magnitude smaller; a declared length above
#: this is a corrupted/forged header, and rejecting it up front keeps a
#: streaming reader from buffering unbounded input on one flipped bit.
MAX_PAYLOAD_BYTES = 1 << 30

_MAGIC = b"RPRB"
_PREFIX = struct.Struct("<4sHH")  # magic, version, kind length
_LENGTH = struct.Struct("<Q")  # payload length
_SCALAR = struct.Struct("<q")
_CRC = struct.Struct("<I")

#: Element types a report field may have, indexed by their wire dtype code.
_WIRE_DTYPES = (np.dtype("<i8"), np.dtype("<f8"), np.dtype("|i1"))

#: Public aliases of the frame header layout, shared with the collection
#: service's session framing (``repro.server.framing``) so the two frame
#: families cannot silently drift apart.
REPORT_MAGIC = _MAGIC
FRAME_PREFIX = _PREFIX
FRAME_LENGTH = _LENGTH


@dataclass(frozen=True)
class ReportField:
    """One array attribute of a report batch.

    ``per_user`` marks arrays with one row per reporting user; all such
    fields of a batch must agree on their row count, which then defines the
    batch's ``num_users``.  Sum-form fields (e.g. ``InpRR``'s per-cell
    report sums) set ``per_user=False`` and carry no row constraint.
    """

    name: str
    dtype: np.dtype
    ndim: int = 1
    per_user: bool = True
    #: The dtype's wire code (its index in ``_WIRE_DTYPES``).
    code: int = field(init=False, repr=False, compare=False)
    #: The field's payload descriptor: dtype code, rank, then the shape.
    descriptor: struct.Struct = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dtype = np.dtype(self.dtype)
        try:
            code = _WIRE_DTYPES.index(dtype.newbyteorder("<"))
        except ValueError:
            raise WireFormatError(
                f"report field {self.name!r} has dtype {dtype}, which the "
                f"wire format cannot carry (supported: "
                f"{[str(wire) for wire in _WIRE_DTYPES]})"
            ) from None
        object.__setattr__(self, "dtype", dtype)
        object.__setattr__(self, "code", code)
        object.__setattr__(
            self, "descriptor", struct.Struct(f"<BB{self.ndim}Q")
        )


@dataclass(frozen=True)
class ReportSchema:
    """Wire description of one protocol's report-batch dataclass."""

    kind: str
    report_class: type
    fields: Tuple[ReportField, ...]
    #: Non-array integer attributes (e.g. ``InpRR``'s ``num_users``).
    scalar_fields: Tuple[str, ...] = field(default=())


_SCHEMAS_BY_KIND: Dict[str, ReportSchema] = {}
_SCHEMAS_BY_CLASS: Dict[type, ReportSchema] = {}


def register_report_schema(
    kind: str,
    report_class: type,
    fields: Tuple[ReportField, ...],
    scalar_fields: Tuple[str, ...] = (),
) -> ReportSchema:
    """Register a report dataclass with the wire codec (one per protocol)."""
    schema = ReportSchema(
        kind=kind,
        report_class=report_class,
        fields=tuple(fields),
        scalar_fields=tuple(scalar_fields),
    )
    existing = _SCHEMAS_BY_KIND.get(kind)
    if existing is not None and existing.report_class is not report_class:
        raise WireFormatError(
            f"report kind {kind!r} is already registered to "
            f"{existing.report_class.__name__}"
        )
    _SCHEMAS_BY_KIND[kind] = schema
    _SCHEMAS_BY_CLASS[report_class] = schema
    return schema


def available_report_kinds() -> Tuple[str, ...]:
    """All registered report kinds (one per protocol), sorted."""
    return tuple(sorted(_SCHEMAS_BY_KIND))


def report_schema_for(key: Union[str, type]) -> ReportSchema:
    """Look up a schema by report kind, report class or report instance type."""
    if isinstance(key, str):
        try:
            return _SCHEMAS_BY_KIND[key]
        except KeyError:
            raise WireFormatError(
                f"unknown report kind {key!r}; registered kinds: "
                f"{list(available_report_kinds())}"
            ) from None
    try:
        return _SCHEMAS_BY_CLASS[key]
    except KeyError:
        raise WireFormatError(
            f"{key.__name__} is not registered with the report wire codec"
        ) from None


class WireCodableReports:
    """Mixin giving a registered report dataclass its byte form."""

    __slots__ = ()

    def to_bytes(self) -> bytes:
        """Serialize this batch into one self-describing wire frame."""
        return encode_reports(self)

    @classmethod
    def from_bytes(cls, data: Union[bytes, bytearray, memoryview]):
        """Decode one wire frame into a validated report batch of this type."""
        return decode_reports(data, expected_kind=report_schema_for(cls).kind)


def encode_reports(reports: Any) -> bytes:
    """Serialize a report batch into one wire frame (see the module header)."""
    schema = report_schema_for(type(reports))
    descriptors = []
    buffers = []
    for spec in schema.fields:
        value = np.asarray(getattr(reports, spec.name))
        if value.dtype != spec.dtype:
            raise WireFormatError(
                f"{schema.kind} field {spec.name!r} must have dtype "
                f"{spec.dtype}, got {value.dtype}"
            )
        if value.ndim != spec.ndim:
            raise WireFormatError(
                f"{schema.kind} field {spec.name!r} must be {spec.ndim}-D, "
                f"got {value.ndim}-D"
            )
        descriptors.append(spec.descriptor.pack(spec.code, spec.ndim, *value.shape))
        buffers.append(value.astype(_WIRE_DTYPES[spec.code], copy=False).tobytes())
    scalars = [
        _SCALAR.pack(int(getattr(reports, name))) for name in schema.scalar_fields
    ]
    body = b"".join(descriptors + scalars + buffers)
    payload_length = len(body) + _CRC.size
    if payload_length > MAX_PAYLOAD_BYTES:
        raise WireFormatError(
            f"{schema.kind} report batch serializes to {payload_length} bytes, "
            f"above the {MAX_PAYLOAD_BYTES}-byte frame limit; encode smaller "
            f"batches"
        )
    kind = schema.kind.encode("utf-8")
    frame = (
        _PREFIX.pack(_MAGIC, WIRE_FORMAT_VERSION, len(kind))
        + kind
        + _LENGTH.pack(payload_length)
        + body
    )
    return frame + _CRC.pack(zlib.crc32(frame))


def decode_reports(
    data: Union[bytes, bytearray, memoryview], expected_kind: str = None
) -> Any:
    """Decode exactly one wire frame into a validated report batch.

    The buffer must hold one complete frame and nothing else; use
    :func:`iter_report_frames` for concatenated frames.  ``expected_kind``
    additionally pins the frame to one protocol's reports.

    ``bytearray``/``memoryview`` input is parsed in place (no up-front
    ``bytes`` copy) — the zero-copy server ingest path hands receive-buffer
    views straight in.
    """
    buffer = data if isinstance(data, bytes) else memoryview(data)
    reports, consumed = _decode_frame(buffer, expected_kind=expected_kind)
    if consumed != len(buffer):
        raise WireFormatError(
            f"report frame holds {consumed} bytes but the buffer has "
            f"{len(buffer)}; trailing data is not allowed (use "
            f"iter_report_frames for concatenated frames)"
        )
    return reports


def concat_report_batches(batches):
    """Concatenate decoded report batches into one equivalent batch.

    The server's micro-batcher coalesces the frames of many connections
    into a single accumulator ``update`` call; this is the schema-driven
    concatenation that makes the coalesced update bit-for-bit identical to
    submitting the batches one by one.  Per-user fields concatenate along
    the user axis; sum-form fields (``per_user=False``, exact integer
    counts held in float64) add elementwise under a strict shape check;
    scalar fields add as Python ints.  Either grouping feeds the same
    exact integer sums into the accumulator, so the estimates agree to
    the last bit.
    """
    batches = list(batches)
    if not batches:
        raise WireFormatError("cannot concatenate zero report batches")
    if len(batches) == 1:
        return batches[0]
    schema = report_schema_for(type(batches[0]))
    for other in batches[1:]:
        if type(other) is not type(batches[0]):
            raise WireFormatError(
                f"cannot concatenate {type(batches[0]).__name__} with "
                f"{type(other).__name__} report batches"
            )
    values: Dict[str, Any] = {}
    for spec in schema.fields:
        arrays = [np.asarray(getattr(batch, spec.name)) for batch in batches]
        if spec.per_user:
            try:
                values[spec.name] = np.concatenate(arrays, axis=0)
            except ValueError as error:
                raise WireFormatError(
                    f"{schema.kind} field {spec.name!r} batches do not "
                    f"concatenate: {error}"
                ) from error
        else:
            first = arrays[0]
            for array in arrays[1:]:
                if array.shape != first.shape:
                    raise WireFormatError(
                        f"{schema.kind} field {spec.name!r} batches disagree "
                        f"on shape: {first.shape} vs {array.shape}"
                    )
            total = first.copy()
            for array in arrays[1:]:
                total += array
            values[spec.name] = total
    for name in schema.scalar_fields:
        values[name] = sum(int(getattr(batch, name)) for batch in batches)
    return schema.report_class(**values)


def iter_report_frames(
    source: Union[bytes, bytearray, memoryview, BinaryIO],
    expected_kind: str = None,
) -> Iterator[Any]:
    """Yield every report batch from a byte buffer or binary stream.

    Frames must be back-to-back; a partial trailing frame raises
    :class:`~repro.core.exceptions.WireFormatError`.
    """
    for frame in split_report_frames(source):
        reports, _ = _decode_frame(frame, expected_kind=expected_kind)
        yield reports


def split_report_frames(
    source: Union[bytes, bytearray, memoryview, BinaryIO],
) -> Iterator[bytes]:
    """Yield each frame's raw bytes without decoding the payloads.

    Lets a relay (or :class:`~repro.service.AggregationSession`) split a
    concatenated stream and hand complete frames on, paying the decode cost
    only once at the consumer.  A bytes buffer is split at absolute offsets
    (O(total bytes) regardless of frame count); a binary stream is read
    incrementally, one frame in memory at a time, so an aggregator can
    consume an arbitrarily long collection without slurping it whole.
    """
    if isinstance(source, (bytes, bytearray, memoryview)):
        buffer = bytes(source)
        offset = 0
        while offset < len(buffer):
            _, _, frame_end = _parse_frame_header(buffer, offset)
            yield buffer[offset:frame_end]
            offset = frame_end
        return
    while True:
        frame = _read_exact(source, _PREFIX.size)
        if not frame:
            return
        if len(frame) == _PREFIX.size:
            # Validate before trusting any length field from the stream —
            # reading garbage lengths could block on gigabytes of input.
            magic, version, kind_length = _PREFIX.unpack(frame)
            _check_prefix(magic, version)
            header_rest = _read_exact(source, kind_length + _LENGTH.size)
            frame += header_rest
            if len(header_rest) == kind_length + _LENGTH.size:
                (payload_length,) = _LENGTH.unpack_from(header_rest, kind_length)
                if payload_length > MAX_PAYLOAD_BYTES:
                    raise WireFormatError(
                        f"report frame declares a {payload_length}-byte "
                        f"payload, above the {MAX_PAYLOAD_BYTES}-byte frame "
                        f"limit — corrupted length field?"
                    )
                frame += _read_exact(source, payload_length)
        # _parse_frame_header owns every truncation/kind check, so the
        # stream and buffer paths report identical errors.
        _parse_frame_header(frame, 0)
        yield frame


def _read_exact(stream: BinaryIO, size: int) -> bytes:
    """Read exactly ``size`` bytes unless the stream ends first."""
    chunks = []
    remaining = size
    while remaining > 0:
        chunk = stream.read(remaining)
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def check_report_version(version: int) -> None:
    """Reject a report frame whose header carries a foreign version.

    A version-1 frame (the retired ``.npz`` payload) gets a message naming
    both versions.  Shared with the session framing's incremental decoder
    so every ingest path words the rejection the same way.
    """
    if version == WIRE_FORMAT_VERSION:
        return
    if version == _NPZ_WIRE_VERSION:
        raise WireFormatError(
            f"report frame uses wire-format version {_NPZ_WIRE_VERSION} "
            f"(npz payload), which is retired; this library speaks version "
            f"{WIRE_FORMAT_VERSION}"
        )
    raise WireFormatError(
        f"report frame uses wire-format version {version}, but this library "
        f"speaks version {WIRE_FORMAT_VERSION}"
    )


def _check_prefix(magic: bytes, version: int) -> None:
    """Validate a frame prefix's magic and wire-format version."""
    if magic != _MAGIC:
        raise WireFormatError(
            f"buffer does not start with a repro report frame "
            f"(magic {bytes(magic)!r}, expected {_MAGIC!r})"
        )
    check_report_version(version)


def _parse_frame_header(buffer: bytes, offset: int) -> Tuple[str, int, int]:
    """Validate the frame header at ``offset``.

    Returns ``(kind, header_end, frame_end)`` as absolute positions into
    ``buffer``.  All transport-level checks — truncation, magic, wire-format
    version, kind decodability — live here, shared by frame splitting and
    frame decoding.
    """
    available = len(buffer) - offset
    if available < _PREFIX.size:
        raise WireFormatError(
            f"report frame is truncated: need at least {_PREFIX.size} header "
            f"bytes, got {available}"
        )
    magic, version, kind_length = _PREFIX.unpack_from(buffer, offset)
    _check_prefix(magic, version)
    header_end = offset + _PREFIX.size + kind_length + _LENGTH.size
    if len(buffer) < header_end:
        raise WireFormatError(
            f"report frame is truncated inside its header: need "
            f"{header_end - offset} bytes, got {available}"
        )
    kind_start = offset + _PREFIX.size
    try:
        kind = bytes(buffer[kind_start : kind_start + kind_length]).decode("utf-8")
    except UnicodeDecodeError as error:
        raise WireFormatError(
            f"report frame kind is not valid UTF-8: {error}"
        ) from error
    (payload_length,) = _LENGTH.unpack_from(buffer, kind_start + kind_length)
    if payload_length > MAX_PAYLOAD_BYTES:
        raise WireFormatError(
            f"report frame declares a {payload_length}-byte payload, above "
            f"the {MAX_PAYLOAD_BYTES}-byte frame limit — corrupted length "
            f"field?"
        )
    frame_end = header_end + payload_length
    if len(buffer) < frame_end:
        raise WireFormatError(
            f"report frame is truncated: payload declares {payload_length} "
            f"bytes but only {len(buffer) - header_end} follow the header"
        )
    return kind, header_end, frame_end


def _decode_frame(buffer: bytes, expected_kind: str = None) -> Tuple[Any, int]:
    """Decode the frame at the start of ``buffer``; return (reports, size)."""
    kind, header_end, frame_end = _parse_frame_header(buffer, 0)
    schema = report_schema_for(kind)
    if expected_kind is not None and kind != expected_kind:
        raise WireFormatError(
            f"report frame carries {kind!r} reports, expected "
            f"{expected_kind!r}"
        )
    view = memoryview(buffer)
    body_end = frame_end - _CRC.size
    if body_end < header_end:
        raise WireFormatError(
            f"report frame payload for {kind!r} is truncated: "
            f"{frame_end - header_end} bytes cannot hold its "
            f"{_CRC.size}-byte CRC-32"
        )
    (stored,) = _CRC.unpack_from(view, body_end)
    computed = zlib.crc32(view[:body_end])
    if stored != computed:
        raise WireFormatError(
            f"report frame payload for {kind!r} is corrupted: stored CRC-32 "
            f"{stored:#010x} does not match the computed {computed:#010x}"
        )
    values = _read_fields(schema, view, header_end, body_end)
    return schema.report_class(**values), frame_end


def _read_fields(
    schema: ReportSchema, view: memoryview, offset: int, end: int
) -> Dict[str, Any]:
    """Check the payload ``view[offset:end]`` against the schema and
    extract its fields as owned arrays."""
    values: Dict[str, Any] = {}
    shapes = []
    rows = None
    rows_field = None
    for index, spec in enumerate(schema.fields):
        if offset + spec.descriptor.size > end:
            missing = [later.name for later in schema.fields[index:]]
            raise WireFormatError(
                f"{schema.kind} report payload is truncated before field "
                f"{spec.name!r}'s descriptor: missing {missing}"
            )
        code, ndim, *shape = spec.descriptor.unpack_from(view, offset)
        offset += spec.descriptor.size
        if code != spec.code:
            if code < len(_WIRE_DTYPES):
                got = _WIRE_DTYPES[code]
            else:
                got = f"unknown dtype code {code}"
            raise WireFormatError(
                f"{schema.kind} field {spec.name!r} must have dtype "
                f"{spec.dtype}, got {got}"
            )
        if ndim != spec.ndim:
            raise WireFormatError(
                f"{schema.kind} field {spec.name!r} must be {spec.ndim}-D, "
                f"got {ndim}-D"
            )
        if max(shape, default=0) > MAX_PAYLOAD_BYTES:
            raise WireFormatError(
                f"{schema.kind} field {spec.name!r} declares shape "
                f"{tuple(shape)}, an axis above the {MAX_PAYLOAD_BYTES}-byte "
                f"frame limit"
            )
        if spec.per_user:
            if rows is None:
                rows, rows_field = shape[0], spec.name
            elif shape[0] != rows:
                raise WireFormatError(
                    f"{schema.kind} per-user fields disagree on the batch "
                    f"size: {rows_field!r} has {rows} rows but "
                    f"{spec.name!r} has {shape[0]}"
                )
        shapes.append(shape)
    scalar_end = offset + _SCALAR.size * len(schema.scalar_fields)
    if scalar_end > end:
        raise WireFormatError(
            f"{schema.kind} report payload is truncated inside its scalar "
            f"fields {list(schema.scalar_fields)}"
        )
    for name in schema.scalar_fields:
        (value,) = _SCALAR.unpack_from(view, offset)
        offset += _SCALAR.size
        if value < 0:
            raise WireFormatError(
                f"{schema.kind} field {name!r} must be non-negative, "
                f"got {value}"
            )
        values[name] = value
    for spec, shape in zip(schema.fields, shapes):
        count = math.prod(shape)
        nbytes = count * spec.dtype.itemsize
        if nbytes > end - offset:
            raise WireFormatError(
                f"{schema.kind} field {spec.name!r} declares shape "
                f"{tuple(shape)} ({nbytes} bytes) but only {end - offset} "
                f"payload bytes remain"
            )
        # astype copies: the batch must not pin the (receive) buffer.
        values[spec.name] = (
            np.frombuffer(view, _WIRE_DTYPES[spec.code], count, offset)
            .reshape(shape)
            .astype(spec.dtype)
        )
        offset += nbytes
    if offset != end:
        raise WireFormatError(
            f"{schema.kind} report payload has {end - offset} trailing "
            f"byte(s) after its last field"
        )
    return values
