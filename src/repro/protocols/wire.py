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
split back apart with :func:`iter_report_frames`.

Decoding runs in two steps, so a collector pays the per-frame work once
per frame and the per-column numpy work once per block of frames:

1. :func:`parse_report_frame`, on each frame as it arrives, makes the
   structural checks: the magic, the version (a retired version-1 or
   version-2 frame gets an error naming its version and this one), the
   kind, the CRC-32, every field's dtype, rank and shape, the cross-field
   row consistency, non-negative scalars, given the spec's ``bounds`` each
   field's column count (before the width table is read), every width (no
   column wider than its dtype holds, none 0 in a non-empty batch) and the
   rows' length against ``rows * stride``.  It keeps owned copies of the
   packed rows and sum-form arrays, so a parsed frame never pins the
   buffer it came from (the server parses off its receive buffer).
   It accepts a frame in one pass (one unpack of the frame head compared
   with the schema's constants, one CRC-32); only a frame that fails a
   comparison takes the refusal path, which checks one step at a time.
2. :func:`decode_report_block`, once per fold, unpacks any number of
   parsed frames into one batch and makes the value checks: zero padding
   bits, each frame's canonical widths (every column wider than 1 bit
   reaches its top bit in that frame) and, given ``bounds``, every value
   against the range the spec implies.  Consecutive frames with one width
   table are unpacked as one run, in fixed-size row chunks written straight
   into the batch's arrays, so its working memory is its outputs plus a
   few chunks of 64-bit words.

:func:`decode_reports` is the one-frame case of the two.  Anything off
raises :class:`~repro.core.exceptions.WireFormatError` before the batch
reaches an accumulator.  The CRC-32 catches every single-byte corruption
of a frame, and the canonical-width and padding checks make a decodable
frame the only encoding of its batch.  Decoding costs time and memory
linear in the frame's bytes: a frame of many columns is cut with a fixed
number of numpy calls per chunk, not a Python step per column.

Decoding unpacks every column to its field's dtype (int64, int8 or ±1.0
float64), so an encode → ``to_bytes`` → ``from_bytes`` → aggregate round
trip is bit-for-bit identical to handing the in-memory batch straight to
the accumulator, and a block is bit-for-bit the
:func:`concat_report_batches` of its frames' one-by-one decodes.
:func:`check_report_values` applies the value checks to an in-memory batch.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import struct
import zlib
from dataclasses import dataclass, field
from typing import (
    Any,
    BinaryIO,
    Dict,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.exceptions import AggregationError, WireFormatError

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
    "ParsedReportFrame",
    "parse_report_frame",
    "decode_report_block",
    "concat_report_batches",
    "check_report_values",
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
#: ``zlib.crc32`` of any frame that ends in its own CRC-32: CRC-32 maps a
#: message followed by its little-endian CRC to this constant.
_CRC_RESIDUE = 0x2144DF1C

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
    #: The per-user fields (they travel packed) and the sum-form ones.
    packed_fields: Tuple[ReportField, ...] = field(
        init=False, repr=False, compare=False
    )
    summed_fields: Tuple[ReportField, ...] = field(
        init=False, repr=False, compare=False
    )
    #: The frame head (prefix, kind, payload length, every descriptor and
    #: scalar) read in one unpack, the getters :func:`parse_report_frame`
    #: checks it with, the header's size and the frame sizes it accepts.
    frame_head: struct.Struct = field(init=False, repr=False, compare=False)
    head_getters: Tuple[Any, ...] = field(init=False, repr=False, compare=False)
    header_size: int = field(init=False, repr=False, compare=False)
    sizes: range = field(init=False, repr=False, compare=False)
    #: Width limits per per-user field, and per column (None with a 2-D field).
    width_units: Tuple[bytes, ...] = field(init=False, repr=False, compare=False)
    width_limits: Optional[bytes] = field(init=False, repr=False, compare=False)
    #: The 2-D per-user fields, with their places among ``packed_fields``.
    wide_fields: Tuple[Tuple[int, ReportField], ...] = field(
        init=False, repr=False, compare=False
    )
    #: Where a batch without per-user fields keeps its ``num_users``
    #: among the scalars (None when its rows count the users).
    users_at: Optional[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        put("packed_fields", tuple(spec for spec in self.fields if spec.per_user))
        put("summed_fields", tuple(spec for spec in self.fields if not spec.per_user))
        put(
            "wide_fields",
            tuple(
                (index, spec)
                for index, spec in enumerate(self.packed_fields)
                if spec.ndim == 2
            ),
        )
        put(
            "users_at",
            None if self.packed_fields else self.scalar_fields.index("num_users"),
        )
        kind = self.kind.encode("utf-8")
        prefix = (_MAGIC, WIRE_FORMAT_VERSION, len(kind), kind)
        put("header_size", _PREFIX.size + len(kind) + _LENGTH.size)
        put(
            "frame_head",
            struct.Struct(
                f"{_PREFIX.format}{len(kind)}s{_LENGTH.format[1:]}"
                + "".join(spec.descriptor.format[1:] for spec in self.fields)
                + "q" * len(self.scalar_fields)
            ),
        )
        least = self.frame_head.size + _CRC.size
        put("sizes", range(least, self.header_size + MAX_PAYLOAD_BYTES + 1))
        units = tuple(bytes([spec.width_limit]) for spec in self.packed_fields)
        put("width_units", units)
        put("width_limits", None if self.wide_fields else b"".join(units))
        # Positions in the unpacked frame head (the prefix, then the payload
        # length), read with the constants 1 (the column count of a 1-D
        # field) and 0 (the rows and axes of a head that has none) appended.
        at = len(prefix) + 1
        one = at + sum(2 + spec.ndim for spec in self.fields) + len(self.scalar_fields)
        fixed, axes, rows, counts, sums = list(range(len(prefix))), [], [], [], []
        for spec in self.fields:
            fixed += [at, at + 1]
            shape = list(range(at + 2, at + 2 + spec.ndim))
            axes += shape
            if spec.per_user:
                rows.append(shape[0])
                counts.append(shape[1] if spec.ndim == 2 else one)
            else:
                sums.append(
                    (spec.name, _WIRE_DTYPES[spec.code], spec.dtype, _getter(shape))
                )
            at += 2 + spec.ndim
        expected = prefix + tuple(
            value for spec in self.fields for value in (spec.code, spec.ndim)
        )
        put(
            "head_getters",
            (
                _getter(fixed), expected, _getter(axes or [one + 1]),
                _getter(rows or [one + 1]), _getter(counts), tuple(sums),
                slice(at, at + len(self.scalar_fields)),
            ),
        )


def _getter(positions):
    """A callable picking ``positions`` out of a tuple, as a tuple."""
    if len(positions) > 1:
        return operator.itemgetter(*positions)
    # One position or none: a slice keeps the result a tuple.
    first = positions[0] if positions else 0
    return operator.itemgetter(slice(first, first + len(positions)))


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
    views straight in.  This is the one-frame case of
    :func:`decode_report_block`.
    """
    frame = parse_report_frame(data, expected_kind, bounds)
    return decode_report_block((frame,), bounds)


class ParsedReportFrame:
    """A report frame that passed its structural checks, not yet unpacked.

    The first step of decoding (:func:`parse_report_frame`) leaves this:
    the frame's schema, its user count, its column counts and width table,
    its scalars, and owned copies of its packed rows and sum-form arrays,
    so it never pins the buffer it was parsed from.  The second step,
    :func:`decode_report_block`, unpacks any number of them at once.
    """

    __slots__ = (
        "schema", "rows", "num_users", "counts", "widths", "total", "packed",
        "sums", "scalars",
    )

    def __init__(self, schema, rows, counts, widths, total, packed, sums, scalars):
        self.schema = schema
        self.rows = rows
        #: Column count of each per-user field, in schema order.
        self.counts = counts
        self.widths = widths
        #: The bits of one packed row (the widths' sum).
        self.total = total
        self.packed = packed
        self.sums = sums
        self.scalars = scalars
        # A batch without per-user fields (InpRR's) counts its users in its
        # ``num_users`` scalar.
        self.num_users = rows if schema.users_at is None else scalars[schema.users_at]


def parse_report_frame(
    data: Union[bytes, bytearray, memoryview],
    expected_kind: str = None,
    bounds: Mapping[str, Tuple[int, ...]] = None,
) -> ParsedReportFrame:
    """Run the structural checks on exactly one wire frame.

    Checks the header, the CRC-32, every descriptor and scalar, the width
    table against each field's dtype (and, given ``bounds``, each field's
    column count against the spec) and the rows' length; what only the
    values can tell — padding bits, canonical widths and the bounds — is
    left to :func:`decode_report_block`.
    A frame of ``expected_kind`` that fails no comparison of the one-pass
    accept is parsed here; any other goes to :func:`_parse_refused`.
    """
    schema = _SCHEMAS_BY_KIND.get(expected_kind)
    size = len(data)
    if schema is None or size not in schema.sizes:
        return _parse_refused(data, expected_kind, bounds)
    values = schema.frame_head.unpack_from(data) + (1, 0)
    fixed, expected, axes, rows_of, counts_of, sums_of, scalars_at = schema.head_getters
    row_axes = rows_of(values)
    rows = row_axes[0]
    if (
        fixed(values) != expected
        or values[4] != size - schema.header_size  # the payload length
        or zlib.crc32(data) != _CRC_RESIDUE
        or max(axes(values)) > MAX_PAYLOAD_BYTES
        or row_axes.count(rows) != len(row_axes)
    ):
        return _parse_refused(data, expected_kind, bounds)
    kind = schema.kind
    offset, end = schema.frame_head.size, size - _CRC.size
    counts = counts_of(values)
    scalars = values[scalars_at]
    if scalars and min(scalars) < 0:
        name = schema.scalar_fields[scalars.index(min(scalars))]
        raise WireFormatError(
            f"{kind} field {name!r} must be non-negative, got {min(scalars)}"
        )
    if bounds is not None:
        # Checked before the width table is read: a forged column count
        # costs nothing once the spec says how many columns there are (a
        # 1-D field has one column, and its bounds one entry).
        for index, spec in schema.wide_fields:
            limits = bounds.get(spec.name)
            count = counts[index]
            if limits is not None and len(limits) != count:
                raise WireFormatError(
                    f"{kind} field {spec.name!r} has {count} column(s), "
                    f"but the spec implies {len(limits)}"
                )
    widths, total = b"", 0
    if counts:
        num_columns = sum(counts)
        if num_columns > end - offset:
            raise WireFormatError(
                f"{kind} report payload is truncated inside its width "
                f"table: {num_columns} column width(s) declared, "
                f"{end - offset} byte(s) remain"
            )
        widths = bytes(data[offset : offset + num_columns])
        offset += num_columns
        caps = schema.width_limits or b"".join(
            map(operator.mul, schema.width_units, counts)
        )
        if widths and not (
            rows and min(widths) and all(map(operator.le, widths, caps))
        ):
            _check_widths(schema, counts, rows, widths)
        total = sum(widths)
    sums = {}
    for name, wire_dtype, dtype, shape_of in sums_of:
        shape = shape_of(values)
        nbytes = math.prod(shape) * wire_dtype.itemsize
        if nbytes > end - offset:
            raise WireFormatError(
                f"{kind} field {name!r} declares shape "
                f"{shape} ({nbytes} bytes) but only {end - offset} "
                f"payload bytes remain"
            )
        # astype copies: the frame must not pin the (receive) buffer.
        sums[name] = np.ndarray(shape, wire_dtype, data, offset).astype(dtype)
        offset += nbytes
    stride = -(-total // 8)
    if rows * stride != end - offset:
        if rows * stride < end - offset:
            raise WireFormatError(
                f"{kind} report payload has {end - offset - rows * stride} "
                f"trailing byte(s) after its last field"
            )
        raise WireFormatError(
            f"{kind} report payload declares {rows} row(s) of {stride} "
            f"byte(s) but only {end - offset} payload bytes remain"
        )
    return ParsedReportFrame(
        schema, rows, counts, widths, total,
        bytes(data[offset:end]) if rows else b"", sums, scalars,
    )


def decode_report_block(
    frames: Sequence[ParsedReportFrame],
    bounds: Mapping[str, Tuple[int, ...]] = None,
) -> Any:
    """Unpack parsed frames of one kind into one report batch.

    The batch is :func:`concat_report_batches` of the frames' one-by-one
    decodes, bit for bit.  Consecutive frames with the same width table
    are unpacked as one run of rows, in fixed-size row chunks written
    straight into the batch's arrays.  Every frame's padding bits must be
    0 and each of its columns must reach its declared width; given
    ``bounds``, every value must lie below its column's bound.
    """
    if not frames:
        raise WireFormatError("cannot decode a block of zero report frames")
    first = frames[0]
    schema = first.schema
    for frame in frames:
        if frame.schema is not schema:
            raise WireFormatError(
                f"cannot decode {schema.kind} and {frame.schema.kind} report "
                f"frames as one block"
            )
        if frame.counts != first.counts:
            raise WireFormatError(
                f"{schema.kind} report frames disagree on their column "
                f"counts: {first.counts} vs {frame.counts}"
            )
    values: Dict[str, Any] = {}
    for spec in schema.summed_fields:
        total = first.sums[spec.name]
        if len(frames) > 1:
            total = total.copy()
            for frame in frames[1:]:
                other = frame.sums[spec.name]
                if other.shape != total.shape:
                    raise WireFormatError(
                        f"{schema.kind} field {spec.name!r} frames disagree "
                        f"on shape: {total.shape} vs {other.shape}"
                    )
                total += other
        values[spec.name] = total
    for index, name in enumerate(schema.scalar_fields):
        values[name] = sum(frame.scalars[index] for frame in frames)
    if not schema.packed_fields:
        return schema.report_class(**values)
    rows = sum(frame.rows for frame in frames)
    outputs = [
        np.empty((rows,) if spec.ndim == 1 else (rows, count), dtype=spec.dtype)
        for spec, count in zip(schema.packed_fields, first.counts)
    ]
    if rows and first.widths:
        largest = None
        row = 0
        for _, run in itertools.groupby(frames, key=lambda frame: frame.widths):
            run = list(run)
            if run[0].rows:  # else a run of empty frames
                maxima = _unpack_run(schema, run, outputs, row)
                largest = maxima if largest is None else np.maximum(largest, maxima)
                row += sum(frame.rows for frame in run)
        if bounds is not None:
            _check_bounds(schema, first.counts, bounds, largest)
    for spec, output in zip(schema.packed_fields, outputs):
        values[spec.name] = output
    return schema.report_class(**values)


def concat_report_batches(batches):
    """Concatenate decoded report batches into one equivalent batch.

    :meth:`~repro.service.AggregationSession.submit_decoded` folds a list
    of decoded batches into a single accumulator ``update`` call; this is
    the schema-driven concatenation that makes that update bit-for-bit
    identical to submitting the batches one by one (and
    :func:`decode_report_block` is bit-for-bit the concatenation of its
    frames' one-by-one decodes).  Per-user fields concatenate along
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


def check_report_values(reports: Any, bounds) -> None:
    """Check an in-memory batch's per-user values as decoding checks them.

    Each sign column must hold only ±1.0; each column ``bounds`` names
    must hold integers in ``[0, bound)``, and a bounded field must have as
    many columns as its bounds.  A violation raises
    :class:`~repro.core.exceptions.AggregationError` naming the field and
    its bound.
    """
    schema = report_schema_for(type(reports))
    for spec in schema.packed_fields:
        value = np.asarray(getattr(reports, spec.name))
        limits = None if bounds is None else bounds.get(spec.name)
        if spec.sign:
            if np.count_nonzero(value * value != 1.0):
                raise AggregationError(
                    f"{schema.kind} sign field {spec.name!r} holds a value "
                    f"other than -1.0 or +1.0"
                )
            continue
        if limits is None:
            continue
        table = value[:, None] if value.ndim == 1 else value
        if value.ndim != spec.ndim or table.shape[1] != len(limits):
            raise AggregationError(
                f"{schema.kind} field {spec.name!r} has shape {value.shape}, "
                f"but the spec implies {len(limits)} column(s)"
            )
        if not len(table):
            continue
        for low, high, limit in zip(
            table.min(axis=0).tolist(), table.max(axis=0).tolist(), limits
        ):
            if low < 0 or high >= limit:
                raise AggregationError(
                    f"{schema.kind} field {spec.name!r} holds "
                    f"{low if low < 0 else high}, outside the bound "
                    f"[0, {limit}) its spec implies"
                )


def iter_report_frames(
    source: Union[bytes, bytearray, memoryview, BinaryIO],
    expected_kind: str = None,
) -> Iterator[Any]:
    """Yield every report batch from a byte buffer or binary stream.

    Frames must be back-to-back; a partial trailing frame raises
    :class:`~repro.core.exceptions.WireFormatError`.
    """
    for frame in split_report_frames(source):
        yield decode_report_block((parse_report_frame(frame, expected_kind),))


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
                # The buffer path's order: the kind, then the length.
                _decode_kind(header_rest[:kind_length])
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


def _decode_kind(raw) -> str:
    """A frame header's kind field as text, refused unless it is UTF-8."""
    try:
        return bytes(raw).decode("utf-8")
    except UnicodeDecodeError as error:
        raise WireFormatError(
            f"report frame kind is not valid UTF-8: {error}"
        ) from error


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
    if magic != _MAGIC or version != WIRE_FORMAT_VERSION:
        _check_prefix(magic, version)
    header_end = offset + _PREFIX.size + kind_length + _LENGTH.size
    if len(buffer) < header_end:
        raise WireFormatError(
            f"report frame is truncated inside its header: need "
            f"{header_end - offset} bytes, got {available}"
        )
    kind_start = offset + _PREFIX.size
    kind = _decode_kind(buffer[kind_start : kind_start + kind_length])
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


def _parse_refused(buffer, expected_kind: str, bounds) -> ParsedReportFrame:
    """Check a frame the one-pass accept did not take one step at a time,
    raising the first fault; a whole frame that passes (parsed without an
    expected kind, or with trailing bytes) goes back to the accept pass."""
    kind, header_end, frame_end = _parse_frame_header(buffer, 0)
    schema = _SCHEMAS_BY_KIND.get(kind) or report_schema_for(kind)
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
    _refuse_descriptors(schema, view, header_end, body_end)
    if frame_end < schema.sizes.start:
        raise WireFormatError(
            f"{kind} report payload is truncated inside its scalar "
            f"fields {list(schema.scalar_fields)}"
        )
    frame = parse_report_frame(view[:frame_end], kind, bounds)
    if frame_end != len(buffer):
        raise WireFormatError(
            f"report frame holds {frame_end} bytes but the buffer has "
            f"{len(buffer)}; trailing data is not allowed (use "
            f"iter_report_frames for concatenated frames)"
        )
    return frame


def _refuse_descriptors(schema: ReportSchema, view, offset: int, end: int):
    """Read a payload's field descriptors one by one and raise on the
    first that does not fit its schema (truncated, another dtype or rank,
    an axis above the frame limit, or per-user fields that disagree on
    the batch size)."""
    kind = schema.kind
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
            continue
        if rows_field is None:
            rows, rows_field = shape[0], spec.name
        elif shape[0] != rows:
            raise WireFormatError(
                f"{kind} per-user fields disagree on the batch size: "
                f"{rows_field!r} has {rows} rows but {spec.name!r} has "
                f"{shape[0]}"
            )


def _check_widths(schema: ReportSchema, counts, rows: int, widths: bytes) -> None:
    """Every width fits its field's dtype: 1 up to the field's limit, or 0
    exactly when the batch is empty."""
    position = 0
    for spec, count in zip(schema.packed_fields, counts):
        table = widths[position : position + count]
        position += count
        if not table:
            continue
        if not rows:
            if any(table):
                raise WireFormatError(
                    f"{schema.kind} field {spec.name!r} declares a "
                    f"{max(table)}-bit column in an empty batch"
                )
        elif min(table) < 1 or max(table) > spec.width_limit:
            width = min(table) if min(table) < 1 else max(table)
            raise WireFormatError(
                f"{schema.kind} field {spec.name!r} declares a {width}-bit "
                f"column; its columns pack into 1 to {spec.width_limit} "
                f"bits"
            )


#: Each packed width's mask.
_WIDTH_MASKS = np.array([(1 << width) - 1 for width in range(64)], dtype=_WORD)

#: Packed cells unpacked per chunk of rows: the unpack's working set is a
#: few ``uint64`` arrays of this many cells, whatever the frames' size.
_CHUNK_CELLS = 1 << 16


def _unpack_run(schema: ReportSchema, frames, outputs, row: int) -> np.ndarray:
    """Unpack a run of frames sharing one width table into ``outputs``
    from ``row`` on; return each column's largest value.

    The run's rows are copied end to end into one buffer with 8 zero bytes
    after them, and word ``k`` of a row is read as the little-endian 8
    bytes from its byte ``8k`` on (the top word reaches into the next row,
    whose bits every column's mask drops).  A column at bit offset ``o``
    is word ``o // 64`` shifted down by ``o % 64``, plus the next word's
    low bits when it spans two, masked to its width.  All columns are cut
    at once, a fixed number of numpy calls per chunk of rows, so a forged
    width table of millions of columns costs time linear in its bytes.
    The bits past the last column, a row's padding, must be 0, and in
    every frame a column wider than 1 bit must have its top bit set in
    some row: only the canonical width decodes.
    """
    kind = schema.kind
    widths = frames[0].widths
    total = frames[0].total
    stride = -(-total // 8)
    rows = sum(frame.rows for frame in frames)
    # One copy of the run's rows, 8 zero bytes after them.
    copied = b"".join([frame.packed for frame in frames] + [bytes(8)])
    starts = list(
        itertools.accumulate((frame.rows for frame in frames[:-1]), initial=0)
    )
    words = np.ndarray((-(-stride // 8), rows), _WIRE_WORD, copied, 0, (8, stride))
    width = np.frombuffer(widths, np.uint8).astype(_WORD)
    end = np.cumsum(width)
    word = end - width
    shift = (word & _SHIFTS[63])[:, None]
    word >>= _SHIFTS[6]
    spans = ()
    if total > 64:
        # A column spans two words when its last bit is in the next one.
        end -= _SHIFTS[1]
        end >>= _SHIFTS[6]
        end -= word
        spans = np.flatnonzero(end)
        if spans.size:
            spill = _SHIFTS[64] - shift[spans]
            spill_word = word[spans] + _SHIFTS[1]
    del end
    mask = _WIDTH_MASKS[width][:, None]
    padding = 8 * stride - total
    chunk = max(1, _CHUNK_CELLS // len(widths))
    if chunk < rows:
        # Per frame and column, the largest value seen (columns x frames).
        maxima = np.zeros((len(widths), len(frames)), dtype=_WORD)
    for low in range(0, rows, chunk):
        high = min(rows, low + chunk)
        block = words[:, low:high]
        if padding and np.count_nonzero(
            (block[-1] >> _SHIFTS[total % 64]) & _MASKS[padding]
        ):
            raise WireFormatError(
                f"{kind} report rows set padding bits past their "
                f"{total}-bit fields"
            )
        if len(block) == 1:  # rows of one word broadcast against the shifts
            columns = block >> shift
        else:
            columns = block[word]
            columns >>= shift
        if len(spans):
            spilled = block[spill_word]
            spilled <<= spill
            columns[spans] |= spilled
        columns &= mask
        # The frames this chunk holds rows of, and where each begins in it.
        first = bisect.bisect_right(starts, low) - 1
        last = bisect.bisect_left(starts, high)
        cuts = [0] + [start - low for start in starts[first + 1 : last]]
        seen = np.maximum.reduceat(columns, cuts, axis=1)
        if chunk < rows:
            np.maximum(maxima[:, first:last], seen, out=maxima[:, first:last])
        else:
            maxima = seen
        _write_columns(schema, columns, outputs, row + low, row + high)
    del word, shift, mask, columns
    # A column of width w is canonical when its largest value, shifted
    # down by w - 1, is not 0; a 1-bit column always is, so its largest
    # is read with bit 0 set.
    width -= _SHIFTS[1]
    reach = maxima | (_SHIFTS[1] >> width)[:, None]
    reach >>= width[:, None]
    if np.count_nonzero(reach) < reach.size:
        # The first frame with a loose column, and its first such column.
        loose = reach == 0
        frame = int(loose.any(axis=0).argmax())
        column = int(loose[:, frame].argmax())
        value = int(maxima[column, frame])
        raise WireFormatError(
            f"{kind} report packs column {column} at {widths[column]} bits, "
            f"but its largest value {value} needs {max(1, value.bit_length())}"
        )
    return maxima.max(axis=1)


def _write_columns(schema: ReportSchema, columns, outputs, low: int, high: int):
    """Write a chunk's cut columns into each per-user field's rows
    ``[low, high)``, narrowed to the field's dtype."""
    position = 0
    for spec, output in zip(schema.packed_fields, outputs):
        count = 1 if spec.ndim == 1 else output.shape[1]
        if count:
            if spec.ndim == 1:
                cut = columns[position]
            else:
                cut = columns[position : position + count].T
            if spec.sign:
                np.take(_SIGNS, cut, out=output[low:high])
            else:
                output[low:high] = cut
        position += count


def _check_bounds(schema: ReportSchema, counts, bounds, largest) -> None:
    """Every column's largest value lies below the bound its spec implies
    (a bounded field's column count was checked against its bounds)."""
    largest = largest.tolist()
    position = 0
    for spec, count in zip(schema.packed_fields, counts):
        limits = bounds.get(spec.name)
        if limits is not None:
            for value, limit in zip(largest[position : position + count], limits):
                if value >= limit:
                    raise WireFormatError(
                        f"{schema.kind} field {spec.name!r} holds {value}, "
                        f"outside the bound [0, {limit}) its spec implies"
                    )
        position += count
