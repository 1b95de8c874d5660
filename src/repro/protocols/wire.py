"""Byte-level wire codec for protocol report batches.

The streaming pipeline moves report batches between the client-side
:meth:`~repro.protocols.base.MarginalReleaseProtocol.encode_batch` and the
aggregator-side :class:`~repro.protocols.base.Accumulator` as in-memory
dataclasses.  This module gives every one of those dataclasses a portable
byte form so reports can cross process and machine boundaries without
pickle: each protocol registers a :class:`ReportSchema` describing its
report fields (name, dtype, rank, and whether a float column is a ±1
sign), and the codec packs them into a self-describing *frame*
(wire-format version 3)::

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
    per per-user column, in schema order — the width table:
      1           the column's bit width w (a 2-D field has one column
                  per entry of its second axis)
    per sum-form field, in schema order:
      prod(shape) * itemsize
                  the array's C-order little-endian element buffer
    rows * stride the packed rows, one per user (below)
    4             CRC-32 (``zlib.crc32``) of every frame byte before it,
                  header included

Per-user fields travel bit-packed.  A user's row is their columns' bit
fields end to end — column ``c`` occupies bits ``[o_c, o_c + w_c)`` of the
row read as one little-endian integer, ``o_c`` the sum of the widths before
it — padded with zero bits to ``stride = ceil(sum(w) / 8)`` bytes, so the
rows are a fixed-stride array.  An integer column's width is the bit length
of its largest value (at least 1); a declared sign column (a ±1.0 float)
packs +1 as bit 1 and −1 as bit 0 in one bit; an empty batch's widths are
all 0.  For example, an InpOLH row is a 62-bit seed and a 2-bit bucket in
8 bytes.  Sum-form fields (``per_user=False``, InpRR's per-frame
``report_sums``) are not packed: their width table and rows are empty.

Frames are length-prefixed, so any number of them can be concatenated on a
byte stream (that is what ``repro encode | repro aggregate`` pipes) and
split back apart with :func:`iter_report_frames`.  Decoding validates the
magic, the version (a retired version-1 or version-2 frame gets an error
naming its version and this one), the kind, the CRC-32, every field's
dtype, rank and shape, the cross-field row consistency, non-negative
scalars, every width (no column wider than its dtype holds, none 0 in a
non-empty batch, none but the canonical one), the rows' length against
``rows * stride``, zero padding bits and, given the spec's ``bounds``,
every column's values against the range the spec implies, before the batch
reaches an accumulator; anything off raises
:class:`~repro.core.exceptions.WireFormatError` instead of corrupting the
aggregation.  The CRC-32 catches every single-byte corruption of a frame,
and the canonical-width and padding checks make a decodable frame the only
encoding of its batch.  Decoding costs time and memory linear in the
frame's bytes: given ``bounds``, each field's column count is checked
before its width table is read, and without them a frame of many columns
is cut with a fixed number of numpy calls, not a Python step per column.

Decoding unpacks every column to its field's dtype (int64, int8 or ±1.0
float64), so an encode → ``to_bytes`` → ``from_bytes`` → aggregate round
trip is bit-for-bit identical to handing the in-memory batch straight to
the accumulator.  Every decoded array is freshly allocated, so a decoded
batch never pins the buffer it came from (the server decodes off its
receive buffer).
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Dict, Iterator, Mapping, Tuple, Union

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
WIRE_FORMAT_VERSION = 3

#: Retired layouts, by version: no reader is kept for either.
_RETIRED_WIRE_VERSIONS = {
    1: "npz payload",
    2: "unpacked fixed-width columns",
}

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

#: Packed columns are unpacked in native 64-bit words; rows travel as
#: little-endian ones.
_WORD = np.dtype(np.uint64)
_WIRE_WORD = np.dtype("<u8")

#: Shift counts and low-bit masks as ``uint64`` scalars, so every bit
#: operation stays in ``uint64``; built once, as building them per column
#: is a measurable share of a small frame's codec time.
_SHIFTS = tuple(_WORD.type(count) for count in range(65))
_MASKS = tuple(_WORD.type((1 << width) - 1) for width in range(65))

#: A sign column's decoded values, indexed by its bit.
_SIGNS = np.array([-1.0, 1.0])
_INT64 = np.dtype(np.int64)

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
    batch's ``num_users``, and they travel bit-packed.  A per-user field is
    integer (non-negative values, packed at their bit length) or, with
    ``sign=True``, a float64 column of ±1.0 values packed in one bit each.
    Sum-form fields (e.g. ``InpRR``'s per-cell report sums) set
    ``per_user=False``, carry no row constraint and travel verbatim.
    """

    name: str
    dtype: np.dtype
    ndim: int = 1
    per_user: bool = True
    sign: bool = False
    #: The dtype's wire code (its index in ``_WIRE_DTYPES``).
    code: int = field(init=False, repr=False, compare=False)
    #: The field's payload descriptor: dtype code, rank, then the shape.
    descriptor: struct.Struct = field(init=False, repr=False, compare=False)
    #: The widest bit field one of its columns may pack into.
    width_limit: int = field(init=False, repr=False, compare=False)

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
        if self.per_user and (dtype.kind == "f") != self.sign:
            raise WireFormatError(
                f"per-user report field {self.name!r} has dtype {dtype}: a "
                f"per-user float field must be a declared sign field, and "
                f"a sign field must be float64"
            )
        if self.per_user and self.ndim not in (1, 2):
            raise WireFormatError(
                f"per-user report field {self.name!r} must be 1-D or 2-D, "
                f"got {self.ndim}-D"
            )
        object.__setattr__(self, "dtype", dtype)
        object.__setattr__(self, "code", code)
        object.__setattr__(
            self, "descriptor", struct.Struct(f"<BB{self.ndim}Q")
        )
        # A signed integer dtype holds bit lengths up to its size less one.
        limit = 1 if self.sign else 8 * dtype.itemsize - 1
        object.__setattr__(self, "width_limit", limit)


@dataclass(frozen=True)
class ReportSchema:
    """Wire description of one protocol's report-batch dataclass."""

    kind: str
    report_class: type
    fields: Tuple[ReportField, ...]
    #: Non-array integer attributes (e.g. ``InpRR``'s ``num_users``).
    scalar_fields: Tuple[str, ...] = field(default=())
    #: The payload bytes the field descriptors take.
    descriptors_size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self,
            "descriptors_size",
            sum(spec.descriptor.size for spec in self.fields),
        )


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
    parts = []
    buffers = []
    widths = bytearray()
    words = []  # the packed rows, as columns of 64-bit words
    total = 0
    rows = None
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
        parts.append(spec.descriptor.pack(spec.code, spec.ndim, *value.shape))
        if not spec.per_user:
            buffers.append(value.astype(_WIRE_DTYPES[spec.code], copy=False).tobytes())
            continue
        if rows is None:
            rows = value.shape[0]
        elif value.shape[0] != rows:
            raise WireFormatError(
                f"{schema.kind} per-user fields disagree on the batch size: "
                f"{rows} vs {value.shape[0]} rows in {spec.name!r}"
            )
        for bits in _column_bits(schema.kind, spec, value):
            if not rows:
                widths.append(0)
                continue
            # The canonical width: the bit length of the largest value
            # (argmax is far cheaper than a max reduction at frame size).
            width = max(1, int(bits[bits.argmax()]).bit_length())
            if width > spec.width_limit:
                raise WireFormatError(
                    f"{schema.kind} field {spec.name!r} holds a negative "
                    f"value or one wider than its dtype, which the wire "
                    f"format cannot pack"
                )
            word, shift = divmod(total, 64)
            part = bits << _SHIFTS[shift] if shift else bits
            if word < len(words):
                words[word] = words[word] | part
            else:
                words.append(part)
            if shift + width > 64:
                words.append(bits >> _SHIFTS[64 - shift])
            widths.append(width)
            total += width
    parts.extend(
        _SCALAR.pack(int(getattr(reports, name))) for name in schema.scalar_fields
    )
    parts.append(widths)
    parts.extend(buffers)
    if total:
        # Each row's words, little-endian, cut to the row's whole bytes.
        table = np.empty((len(words[0]), len(words)), dtype=_WIRE_WORD)
        for index, word in enumerate(words):
            table[:, index] = word
        parts.append(table.view(np.uint8)[:, : -(-total // 8)].tobytes())
    body = b"".join(parts)
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


def _column_bits(kind: str, spec: ReportField, value: np.ndarray):
    """A per-user field's columns as the unsigned integers they pack."""
    columns = [value] if value.ndim == 1 else [
        value[:, index] for index in range(value.shape[1])
    ]
    if spec.sign:
        for column in columns:
            if np.count_nonzero(column * column != 1.0):
                raise WireFormatError(
                    f"{kind} sign field {spec.name!r} holds a value other "
                    f"than -1.0 or +1.0"
                )
        return [(column > 0).astype(_WORD) for column in columns]
    # Reinterpreted as unsigned, a negative value is wider than the dtype
    # holds, so the width check refuses it.
    if spec.dtype.itemsize == _WORD.itemsize:
        return [column.view(_WORD) for column in columns]
    return [column.astype(_WORD) for column in columns]


def decode_reports(
    data: Union[bytes, bytearray, memoryview],
    expected_kind: str = None,
    bounds: Mapping[str, Tuple[int, ...]] = None,
) -> Any:
    """Decode exactly one wire frame into a validated report batch.

    The buffer must hold one complete frame and nothing else; use
    :func:`iter_report_frames` for concatenated frames.  ``expected_kind``
    additionally pins the frame to one protocol's reports.  ``bounds``
    maps per-user fields to one exclusive upper bound per column (a sign
    column packs to 0 or 1, so its bound is 2); a field it names must have
    that many columns, each value below its bound
    (:meth:`~repro.protocols.base.MarginalReleaseProtocol.decode_reports`
    passes the bounds its spec implies).

    ``bytearray``/``memoryview`` input is parsed in place (no up-front
    ``bytes`` copy) — the zero-copy server ingest path hands receive-buffer
    views straight in.
    """
    buffer = data if isinstance(data, bytes) else memoryview(data)
    reports, consumed = _decode_frame(buffer, expected_kind, bounds)
    if consumed != len(buffer):
        raise WireFormatError(
            f"report frame holds {consumed} bytes but the buffer has "
            f"{len(buffer)}; trailing data is not allowed (use "
            f"iter_report_frames for concatenated frames)"
        )
    return reports


def concat_report_batches(batches):
    """Concatenate decoded report batches into one equivalent batch.

    The collection server folds a connection's pending frames into a
    single accumulator ``update`` call; this is the schema-driven
    concatenation that makes that update bit-for-bit identical to
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
        reports, _ = _decode_frame(frame, expected_kind)
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

    A frame of a retired layout (version 1's ``.npz`` payload, version 2's
    unpacked columns) gets a message naming both versions.  Shared with the
    session framing's incremental decoder so every ingest path words the
    rejection the same way.
    """
    if version == WIRE_FORMAT_VERSION:
        return
    if version in _RETIRED_WIRE_VERSIONS:
        raise WireFormatError(
            f"report frame uses wire-format version {version} "
            f"({_RETIRED_WIRE_VERSIONS[version]}), which is retired; this "
            f"library speaks version {WIRE_FORMAT_VERSION}"
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


def _decode_frame(
    buffer: bytes, expected_kind: str = None, bounds=None
) -> Tuple[Any, int]:
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
    values = _read_fields(schema, view, header_end, body_end, bounds)
    return schema.report_class(**values), frame_end


def _read_fields(
    schema: ReportSchema, view: memoryview, offset: int, end: int, bounds
) -> Dict[str, Any]:
    """Check the payload ``view[offset:end]`` against the schema and
    extract its fields as owned arrays."""
    rows, packed, summed = _read_descriptors(schema, view, offset, end)
    offset += schema.descriptors_size
    num_columns = 0
    for spec, _, count in packed:
        # Checked before the width table is read: a forged column count
        # costs nothing once the spec says how many columns there are.
        limits = None if bounds is None else bounds.get(spec.name)
        if limits is not None and len(limits) != count:
            raise WireFormatError(
                f"{schema.kind} field {spec.name!r} has {count} column(s), "
                f"but the spec implies {len(limits)}"
            )
        num_columns += count
    values: Dict[str, Any] = {}
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
    if num_columns > end - offset:
        raise WireFormatError(
            f"{schema.kind} report payload is truncated inside its width "
            f"table: {num_columns} column width(s) declared, "
            f"{end - offset} byte(s) remain"
        )
    widths = bytes(view[offset : offset + num_columns])
    offset += num_columns
    _check_widths(schema.kind, packed, rows, widths)
    for spec, shape in summed:
        count = math.prod(shape)
        nbytes = count * spec.dtype.itemsize
        if nbytes > end - offset:
            raise WireFormatError(
                f"{schema.kind} field {spec.name!r} declares shape "
                f"{shape} ({nbytes} bytes) but only {end - offset} "
                f"payload bytes remain"
            )
        # astype copies: the batch must not pin the (receive) buffer.
        values[spec.name] = (
            np.frombuffer(view, _WIRE_DTYPES[spec.code], count, offset)
            .reshape(shape)
            .astype(spec.dtype)
        )
        offset += nbytes
    total = sum(widths)
    stride = -(-total // 8)
    if rows * stride != end - offset:
        if rows * stride < end - offset:
            raise WireFormatError(
                f"{schema.kind} report payload has "
                f"{end - offset - rows * stride} trailing byte(s) after its "
                f"last field"
            )
        raise WireFormatError(
            f"{schema.kind} report payload declares {rows} row(s) of "
            f"{stride} byte(s) but only {end - offset} payload bytes remain"
        )
    if not rows:
        for spec, shape, _ in packed:
            values[spec.name] = np.empty(shape, dtype=spec.dtype)
        return values
    columns, largest = _unpack_rows(schema.kind, view, offset, rows, total, widths)
    if bounds is not None:
        _check_bounds(schema.kind, packed, bounds, largest)
    position = 0
    for spec, shape, count in packed:
        # A 1-D field is one row of the block, a 2-D field its transpose.
        if spec.ndim == 1:
            table = columns[position]
        else:
            table = columns[position : position + count].T
        position += count
        if not count:
            table = np.empty(shape, dtype=spec.dtype)
        elif spec.sign:
            table = _SIGNS[table]
        elif spec.ndim == 1 and spec.dtype == _INT64:
            table = table.view(_INT64)  # every value is below 2^63
        else:
            table = table.astype(spec.dtype, order="C")
        values[spec.name] = table
    return values


def _read_descriptors(schema: ReportSchema, view, offset: int, end: int):
    """Check a payload's field descriptors against its schema.

    Returns ``(rows, packed, summed)``: the batch size, the per-user fields
    as ``(spec, shape, columns)`` and the sum-form fields as
    ``(spec, shape)``.
    """
    kind = schema.kind
    packed = []
    summed = []
    rows = 0
    rows_field = None
    for index, spec in enumerate(schema.fields):
        if offset + spec.descriptor.size > end:
            missing = [later.name for later in schema.fields[index:]]
            raise WireFormatError(
                f"{kind} report payload is truncated before field "
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
                f"{kind} field {spec.name!r} must have dtype {spec.dtype}, "
                f"got {got}"
            )
        if ndim != spec.ndim:
            raise WireFormatError(
                f"{kind} field {spec.name!r} must be {spec.ndim}-D, "
                f"got {ndim}-D"
            )
        shape = tuple(shape)
        if max(shape, default=0) > MAX_PAYLOAD_BYTES:
            raise WireFormatError(
                f"{kind} field {spec.name!r} declares shape {shape}, an "
                f"axis above the {MAX_PAYLOAD_BYTES}-byte frame limit"
            )
        if not spec.per_user:
            summed.append((spec, shape))
            continue
        if rows_field is None:
            rows, rows_field = shape[0], spec.name
        elif shape[0] != rows:
            raise WireFormatError(
                f"{kind} per-user fields disagree on the batch size: "
                f"{rows_field!r} has {rows} rows but {spec.name!r} has "
                f"{shape[0]}"
            )
        packed.append((spec, shape, 1 if ndim == 1 else shape[1]))
    return rows, packed, summed


def _check_widths(kind: str, packed, rows: int, widths: bytes) -> None:
    """Every width fits its field's dtype: 1 up to the field's limit, or 0
    exactly when the batch is empty."""
    position = 0
    for spec, _, count in packed:
        table = widths[position : position + count]
        position += count
        if not table:
            continue
        if not rows:
            if any(table):
                raise WireFormatError(
                    f"{kind} field {spec.name!r} declares a {max(table)}-bit "
                    f"column in an empty batch"
                )
        elif min(table) < 1 or max(table) > spec.width_limit:
            width = min(table) if min(table) < 1 else max(table)
            raise WireFormatError(
                f"{kind} field {spec.name!r} declares a {width}-bit "
                f"column; its columns pack into 1 to {spec.width_limit} "
                f"bits"
            )


def _unpack_rows(kind: str, view, offset: int, rows: int, total: int, widths: bytes):
    """The packed rows' columns as a ``(columns, rows)`` ``uint64`` block,
    and each column's largest value.

    The rows are copied out with 8 zero bytes after them, and word ``k``
    of a row is read as the little-endian 8 bytes from its byte ``8k`` on
    (the top word reaches into the next row, whose bits every column's
    mask drops).  A column at bit offset ``o`` is word ``o // 64`` shifted
    down by ``o % 64``, plus the next word's low bits when it spans two,
    masked to its width.  The bits past the last column, the row's
    padding, must be 0, and a column wider than 1 bit must have its top
    bit set in some row: only the canonical width decodes.  A few columns
    are cut one by one; more at once, so a forged width table of millions
    of columns costs time linear in its bytes, not numpy calls per column.
    """
    stride = -(-total // 8)
    # The copy owns its memory, so no decoded array pins the receive buffer.
    copied = bytearray(rows * stride + 8)
    copied[: rows * stride] = view[offset : offset + rows * stride]
    words = np.ndarray((rows, -(-stride // 8)), _WIRE_WORD, copied, 0, (stride, 8))
    padding = 8 * stride - total
    if padding:
        top = words[:, -1] >> _SHIFTS[total % 64]
        if np.count_nonzero(top & _MASKS[padding]):
            raise WireFormatError(
                f"{kind} report rows set padding bits past their "
                f"{total}-bit fields"
            )
    if len(widths) > _LOOP_COLUMNS:
        return _unpack_many(kind, words, widths)
    columns = np.empty((len(widths), rows), dtype=_WORD)
    largest = []
    start = 0
    for index, width in enumerate(widths):
        word, shift = divmod(start, 64)
        bits = words[:, word]
        if shift:
            bits = np.right_shift(bits, _SHIFTS[shift], out=columns[index])
            if shift + width > 64:
                bits |= words[:, word + 1] << _SHIFTS[64 - shift]
        bits = np.bitwise_and(bits, _MASKS[width], out=columns[index])
        # argmax is several times cheaper than a max reduction here.
        value = int(bits[bits.argmax()])
        if width > 1 and not value >> width - 1:
            _refuse_loose(kind, len(largest), widths, value)
        largest.append(value)
        start += width
    return columns, largest


#: Up to this many packed columns, a frame's columns are cut one by one,
#: which costs fewer numpy calls than cutting them at once.
_LOOP_COLUMNS = 8


def _unpack_many(kind: str, words: np.ndarray, widths: bytes):
    """:func:`_unpack_rows` for many columns: all cut at once, with a
    working set of a few ``uint64`` per column besides the block."""
    width = np.frombuffer(widths, np.uint8).astype(_WORD)
    word = np.cumsum(width)
    word -= width
    shift = word & _SHIFTS[63]
    word >>= _SHIFTS[6]
    words = words.T
    columns = words[word]
    columns >>= shift[:, None]
    spans = np.flatnonzero(shift + width > 64)
    if spans.size:
        spill = words[word[spans] + _SHIFTS[1]] << (_SHIFTS[64] - shift[spans])[:, None]
        columns[spans] |= spill
    mask = _SHIFTS[1] << width
    mask -= _SHIFTS[1]
    columns &= mask[:, None]
    largest = columns.max(axis=1)
    # A column of width w > 1 must reach 2^(w-1): above mask >> 1.
    mask >>= _SHIFTS[1]
    loose = (mask > 0) & (largest <= mask)
    if loose.any():
        column = int(loose.argmax())
        _refuse_loose(kind, column, widths, int(largest[column]))
    return columns, largest


def _refuse_loose(kind: str, column: int, widths: bytes, value: int):
    raise WireFormatError(
        f"{kind} report packs column {column} at {widths[column]} bits, but "
        f"its largest value {value} needs {max(1, value.bit_length())}"
    )


def _check_bounds(kind: str, packed, bounds, largest: np.ndarray) -> None:
    """Every column's largest value lies below the bound its spec implies
    (a bounded field's column count was checked against its bounds)."""
    position = 0
    for spec, _, count in packed:
        limits = bounds.get(spec.name)
        if limits is not None:
            for value, limit in zip(largest[position : position + count], limits):
                if value >= limit:
                    raise WireFormatError(
                        f"{kind} field {spec.name!r} holds {value}, outside "
                        f"the bound [0, {limit}) its spec implies"
                    )
        position += count
