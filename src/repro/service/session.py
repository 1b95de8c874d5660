"""Long-lived server-side aggregation sessions.

An :class:`AggregationSession` is the durable aggregator of the split
deployment: it is built from a :class:`~repro.service.ProtocolSpec` (the
out-of-band contract with the clients), ingests report batches either as
in-memory objects or as wire frames (:meth:`submit`), can be queried
mid-stream without consuming its state (:meth:`snapshot`), and survives
process restarts through :meth:`checkpoint`/:meth:`restore` — the restored
session resumes the aggregation bit-for-bit.

A checkpoint (format version 3) is one raw frame, every integer
little-endian::

    offset      size  content
    0           4     magic  b"RPRC"
    4           2     checkpoint format version (u16), 3
    6           4     header length H (u32)
    10          H     header, UTF-8 JSON: "spec", "attributes", "session"
                      (counters), optional "extra", and "arrays", the
                      state array table of [name, dtype, shape] entries
    10 + H      A     the accumulator's state_dict arrays, each a C-order
                      buffer of its table dtype, in table order
    10 + H + A  32    SHA-256 of every byte before it

Nothing in it is pickled, so checkpoints are safe to load from untrusted
storage.  Restore checks the magic, the version, the SHA-256 trailer, each
table entry (numeric dtypes only, shapes against the bytes that remain),
the ``num_reports`` entry and the absence of trailing bytes; anything off
raises :class:`~repro.core.exceptions.WireFormatError` (the trailer
mismatch its subclass
:class:`~repro.core.exceptions.CheckpointIntegrityError`).  The retired
npz archives of versions 1 and 2 are refused with an error naming them.
Files keep their historical ``.npz`` suffix (``state.npz``,
``shard-NN.npz``).
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from ..core.domain import Domain
from ..core.exceptions import (
    AggregationError,
    ProtocolConfigurationError,
    ReproError,
    WireFormatError,
)
from ..observability import trace
from ..resilience.integrity import DIGEST_BYTES, seal_integrity, verify_integrity
from .spec import ProtocolSpec

__all__ = ["CHECKPOINT_FORMAT_VERSION", "AggregationSession", "parse_checkpoint"]

#: Version stamp carried by every checkpoint.  Bump on layout changes.
CHECKPOINT_FORMAT_VERSION = 3

_CHECKPOINT_MAGIC = b"RPRC"
#: Magic, format version and header length: the first bytes of a checkpoint.
_CHECKPOINT_PREFIX = struct.Struct("<4sHI")
#: Local-file-header magic of a zip archive (a retired npz checkpoint).
_ZIP_MAGIC = b"PK\x03\x04"
#: Header fields and their JSON types; all but "extra" are required.
_HEADER_FIELDS = {
    "spec": dict, "attributes": list, "session": dict, "arrays": list, "extra": dict
}
#: dtype kinds a state array may have: bool, signed, unsigned, float.
_STATE_KINDS = "biuf"

PathLike = Union[str, Path]


class AggregationSession:
    """A checkpointable aggregation over one protocol spec and domain.

    Parameters
    ----------
    spec:
        The collection contract — a :class:`ProtocolSpec`, or a live
        protocol instance (converted via
        :meth:`ProtocolSpec.from_protocol`).
    domain:
        The attribute domain the clients report over.
    """

    def __init__(self, spec, domain: Domain):
        if not isinstance(spec, ProtocolSpec):
            if not hasattr(spec, "spec_options"):
                raise ProtocolConfigurationError(
                    "an AggregationSession needs a ProtocolSpec or a protocol "
                    f"instance, got {type(spec).__name__}"
                )
            spec = ProtocolSpec.from_protocol(spec)
        if not isinstance(domain, Domain):
            raise ProtocolConfigurationError(
                f"an AggregationSession needs a Domain, got {type(domain).__name__}"
            )
        self._spec = spec
        self._domain = domain
        self._protocol = spec.build()
        self._accumulator = self._protocol.accumulator(domain)
        self._report_batches = 0
        self._wire_batches = 0
        self._wire_bytes = 0
        self._wire_reports = 0
        #: Application metadata carried by the checkpoint this session was
        #: restored from (``{}`` for a fresh session).  The topology tier
        #: stores collector identity and acknowledged-group tokens here.
        self.checkpoint_extra: Dict[str, Any] = {}

    @property
    def spec(self) -> ProtocolSpec:
        return self._spec

    @property
    def domain(self) -> Domain:
        return self._domain

    @property
    def protocol(self):
        """The protocol instance built from the spec."""
        return self._protocol

    @property
    def num_reports(self) -> int:
        """User reports folded in so far (in-memory and wire submissions)."""
        return self._accumulator.num_reports

    @property
    def metadata(self) -> Dict[str, Any]:
        """Provenance counters of this session (a copy).

        ``wire_bytes_total`` sums the serialized size of every frame
        submitted through :meth:`submit` as bytes and ``wire_reports``
        counts the users those frames carried, which is how the service
        tracks real per-user communication against the paper's Table 2
        (``wire_bytes_per_report`` amortises the frame header over the
        batch).
        """
        return {
            "protocol": self._spec.protocol,
            "report_batches": self._report_batches,
            "wire_batches": self._wire_batches,
            "wire_reports": self._wire_reports,
            "wire_bytes_total": self._wire_bytes,
            "wire_bytes_per_report": (
                self._wire_bytes / self._wire_reports
                if self._wire_reports
                else None
            ),
        }

    def submit(self, reports) -> "AggregationSession":
        """Fold one report batch into the session; returns ``self``.

        ``reports`` is either the in-memory batch object produced by
        :meth:`~repro.protocols.base.MarginalReleaseProtocol.encode_batch`
        or its wire form (``bytes``) produced by ``to_bytes()``.  Wire
        frames are validated (magic, version, kind, field dtypes/shapes)
        before they touch the accumulator.
        """
        with trace.span("session.submit"):
            if isinstance(reports, (bytes, bytearray, memoryview)):
                frame = bytes(reports)
                decoded = self._protocol.decode_reports(frame)
                self._accumulator.update(decoded)
                self._wire_batches += 1
                self._wire_bytes += len(frame)
                self._wire_reports += int(decoded.num_users)
            else:
                self._accumulator.update(reports)
            self._report_batches += 1
        return self

    def submit_decoded(self, batches, *, wire_bytes: int = None) -> int:
        """Fold several already-decoded wire batches in as one update.

        Pays the accumulator ``update`` cost once for the whole list.  The
        batches are concatenated with
        :func:`~repro.protocols.wire.concat_report_batches` — exact by the
        integer-sum argument documented there — so the session state is
        bit-for-bit what ``len(batches)`` individual :meth:`submit` calls
        would have produced.  Counters advance as if each batch had been
        submitted as a wire frame (``wire_bytes`` is the total serialized
        size of the coalesced frames, when known).  Returns the number of
        user reports folded in.
        """
        from ..protocols.wire import concat_report_batches

        batches = list(batches)
        if not batches:
            return 0
        with trace.span("session.submit_decoded") as span:
            combined = concat_report_batches(batches)
            users = int(combined.num_users)
            span.annotate(batches=len(batches), users=users)
            self._accumulator.update(combined)
            self._report_batches += len(batches)
            self._wire_batches += len(batches)
            self._wire_reports += users
            if wire_bytes is not None:
                self._wire_bytes += int(wire_bytes)
        return users

    def merge_group(self, accumulator, *, frames: int, wire_bytes: int) -> None:
        """Absorb a group of wire frames already folded into ``accumulator``.

        ``accumulator`` must come from this session's own
        ``protocol.accumulator(domain)``, which is what lets the collection
        server build one per connection and skip :meth:`merge`'s spec
        comparison.  Counters advance as if the group's ``frames`` wire
        frames (``wire_bytes`` in total) had been submitted here.
        """
        self._accumulator.merge(accumulator)
        self._report_batches += frames
        self._wire_batches += frames
        self._wire_reports += accumulator.num_reports
        self._wire_bytes += wire_bytes

    def snapshot(self):
        """Current estimates without consuming or mutating session state.

        The accumulator's state is copied into a fresh accumulator and that
        copy is finalized, so ``snapshot`` can be called any number of
        times, mid-stream, and further :meth:`submit` calls keep working —
        repeated-finalize-safe by construction.
        """
        fresh = self._protocol.accumulator(self._domain)
        fresh.load_state(self._accumulator.state_dict())
        estimator = fresh.finalize()
        estimator.metadata.update(
            {
                "protocol": self._spec.protocol,
                "spec": self._spec.to_dict(),
                "session": self.metadata,
            }
        )
        return estimator

    def finalize(
        self,
        *,
        allow_partial: bool = False,
        expected_reports: Optional[int] = None,
    ):
        """Snapshot with coverage accounting against an expected count.

        With ``expected_reports`` set (the client side's acknowledged
        total), the estimator's metadata carries a
        :class:`~repro.resilience.CoverageReport` stating exactly how many
        reports arrived versus were expected and the error-bound inflation
        of any shortfall.  Strict mode (the default) raises
        :class:`~repro.core.exceptions.PartialCoverageError` instead of
        silently finalizing over fewer reports than were acknowledged;
        ``allow_partial=True`` finalizes anyway, report attached.
        """
        from ..resilience.coverage import (
            STATUS_LOST,
            STATUS_OK,
            CollectorCoverage,
            CoverageReport,
        )

        received = self.num_reports
        short = (
            expected_reports is not None and received < expected_reports
        )
        coverage = CoverageReport(
            collectors=[
                CollectorCoverage(
                    collector_id="session",
                    expected=expected_reports,
                    received=received,
                    status=STATUS_LOST if short else STATUS_OK,
                    detail=(
                        "fewer reports arrived than were acknowledged"
                        if short
                        else ""
                    ),
                )
            ]
        )
        if not allow_partial:
            coverage.raise_if_partial("finalize")
        estimator = self.snapshot()
        estimator.metadata["coverage"] = coverage.to_dict()
        return estimator

    def merge(self, other: "AggregationSession") -> "AggregationSession":
        """Absorb a peer session (e.g. another collector shard).

        Both sessions must describe the same collection — specs are
        compared in canonical form (defaults spelled out, pure performance
        knobs ignored) over the same domain; a mismatch raises
        :class:`AggregationError` carrying the readable spec diff.  Equal
        specs (a server's own shards share one) skip the canonical diff.
        """
        if not isinstance(other, AggregationSession):
            raise AggregationError(
                f"can only merge another AggregationSession, "
                f"got {type(other).__name__}"
            )
        mismatch = other._spec != self._spec and (
            ProtocolSpec.from_protocol(self._protocol).diff(
                ProtocolSpec.from_protocol(other._protocol),
                ignore_options=self._protocol.tuning_options(),
            )
        )
        if mismatch:
            raise AggregationError(
                "cannot merge sessions built from different specs:\n  "
                + "\n  ".join(mismatch)
            )
        if other._domain != self._domain:
            raise AggregationError(
                f"cannot merge sessions over different domains: "
                f"{self._domain.attributes} != {other._domain.attributes}"
            )
        with trace.span("session.merge"):
            self._accumulator.merge(other._accumulator)
            self._report_batches += other._report_batches
            self._wire_batches += other._wire_batches
            self._wire_reports += other._wire_reports
            self._wire_bytes += other._wire_bytes
        return self

    def checkpoint_bytes(self, *, extra: Optional[Dict[str, Any]] = None) -> bytes:
        """The checkpoint as in-memory bytes (no file involved).

        Byte-for-byte the content :meth:`checkpoint` would have written,
        ready to ship over a wire (the topology tier's ``STATE`` frames) and
        to hand to :meth:`restore_bytes` on the other side.  ``extra`` is an
        optional JSON-serializable metadata object stored in the header and
        surfaced as :attr:`checkpoint_extra` after restore.
        """
        arrays = []
        for name, value in self._accumulator.state_dict().items():
            array = np.asarray(value)
            little = array.dtype.newbyteorder("<")
            arrays.append((name, np.asarray(array, little, order="C")))
        header = {
            "spec": self._spec.to_dict(),
            "attributes": list(self._domain.attributes),
            "session": {
                "report_batches": self._report_batches,
                "wire_batches": self._wire_batches,
                "wire_reports": self._wire_reports,
                "wire_bytes_total": self._wire_bytes,
            },
            "arrays": [
                [name, array.dtype.str, list(array.shape)]
                for name, array in arrays
            ],
        }
        if extra is not None:
            if not isinstance(extra, dict):
                raise ProtocolConfigurationError(
                    f"checkpoint extra metadata must be a dict, "
                    f"got {type(extra).__name__}"
                )
            header["extra"] = extra
        try:
            text = json.dumps(header, separators=(",", ":")).encode("utf-8")
        except (TypeError, ValueError) as error:
            raise ProtocolConfigurationError(
                f"checkpoint extra metadata is not JSON-serializable: {error}"
            ) from error
        prefix = _CHECKPOINT_PREFIX.pack(
            _CHECKPOINT_MAGIC, CHECKPOINT_FORMAT_VERSION, len(text)
        )
        return seal_integrity([prefix, text, *(array.data for _, array in arrays)])

    def checkpoint(
        self, path: PathLike, *, extra: Optional[Dict[str, Any]] = None
    ) -> Path:
        """Write the session (spec + domain + accumulator state) to ``path``.

        The file is self-contained: :meth:`restore` rebuilds an equivalent
        session in a fresh process and the resumed aggregation finalizes to
        estimates bit-for-bit identical to an uninterrupted run.  The write
        is atomic and durable (temp file, ``fsync``, ``os.replace``, then
        an ``fsync`` of the directory), so an interrupted checkpoint leaves
        the previous one intact and a finished one survives power loss.
        ``extra`` is optional JSON metadata stored in the header (see
        :meth:`checkpoint_bytes`).
        """
        path = Path(path)
        with trace.span("session.checkpoint") as span:
            data = self.checkpoint_bytes(extra=extra)
            span.annotate(bytes=len(data))
            self._write_atomic(path, data)
        return path

    @staticmethod
    def _write_atomic(path: Path, data: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        # Write-then-rename so a crash (or full disk) mid-write can never
        # destroy the previous checkpoint: the new bytes land in a sibling
        # temp file and only an atomic os.replace makes them visible.  The
        # umask alone sets the file mode, as for a plain open().
        temp_path = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
        handle = os.open(temp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            try:
                view = memoryview(data)
                while view:
                    view = view[os.write(handle, view):]
                os.fsync(handle)
            finally:
                os.close(handle)
            os.replace(temp_path, path)
        except BaseException:
            try:
                temp_path.unlink()
            except OSError:
                pass
            raise
        # The rename lives in the directory: without this fsync a power
        # loss can bring the previous checkpoint back after the caller has
        # already acknowledged what the new one holds.
        directory = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)

    @classmethod
    def restore(cls, path: PathLike) -> "AggregationSession":
        """Rebuild a checkpointed session; the aggregation resumes exactly."""
        path = Path(path)
        with trace.span("session.restore"):
            try:
                data = path.read_bytes()
            except OSError as error:
                raise WireFormatError(
                    f"cannot read session checkpoint {path}: {error}"
                ) from error
            if not data:
                raise WireFormatError(
                    f"session checkpoint {path} is empty (zero bytes) — the "
                    f"write was interrupted before any data landed; restore "
                    f"from an earlier checkpoint or discard the file"
                )
            return cls._from_checkpoint(data, str(path))

    @classmethod
    def restore_bytes(cls, data: bytes) -> "AggregationSession":
        """Rebuild a session from :meth:`checkpoint_bytes` output."""
        return cls._from_checkpoint(bytes(data), "<bytes>")

    @classmethod
    def _from_checkpoint(cls, data: bytes, source: str) -> "AggregationSession":
        header, state = parse_checkpoint(data, source)
        try:
            spec = ProtocolSpec.from_dict(header["spec"])
            domain = Domain(header["attributes"])
            session = cls(spec, domain)
            session._accumulator.load_state(state)
            counters = header["session"]
            session._report_batches = int(counters.get("report_batches", 0))
            session._wire_batches = int(counters.get("wire_batches", 0))
            session._wire_reports = int(counters.get("wire_reports", 0))
            session._wire_bytes = int(counters.get("wire_bytes_total", 0))
        except (ReproError, TypeError, ValueError) as error:
            raise WireFormatError(
                f"session checkpoint {source} has a corrupted header or "
                f"state: {error}"
            ) from error
        session.checkpoint_extra = header.get("extra", {})
        return session

    def __repr__(self) -> str:
        return (
            f"AggregationSession(spec={self._spec.describe()}, "
            f"d={self._domain.dimension}, num_reports={self.num_reports})"
        )


def parse_checkpoint(
    data: Union[bytes, bytearray], source: str = "<bytes>"
) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Validate a checkpoint and split it into its header and state arrays.

    The state arrays come back in table order, each a view of its bytes in
    ``data`` (``bytes`` or a ``bytearray``).  Anything off raises
    :class:`~repro.core.exceptions.WireFormatError`; a SHA-256 trailer that
    does not match raises its subclass
    :class:`~repro.core.exceptions.CheckpointIntegrityError`.
    """
    if data.startswith(_ZIP_MAGIC):
        raise WireFormatError(
            f"session checkpoint {source} is an npz archive, the retired "
            f"checkpoint format (versions 1 and 2); this library reads "
            f"version {CHECKPOINT_FORMAT_VERSION} only"
        )
    if len(data) < _CHECKPOINT_PREFIX.size + DIGEST_BYTES:
        raise WireFormatError(
            f"session checkpoint {source} is truncated ({len(data)} bytes)"
        )
    magic, version, header_length = _CHECKPOINT_PREFIX.unpack_from(data)
    if magic != _CHECKPOINT_MAGIC:
        raise WireFormatError(
            f"{source} is not a session checkpoint (magic {magic!r})"
        )
    if version != CHECKPOINT_FORMAT_VERSION:
        raise WireFormatError(
            f"session checkpoint {source} uses format version {version}, but "
            f"this library speaks version {CHECKPOINT_FORMAT_VERSION} (versions "
            f"1 and 2 were npz archives, a retired format)"
        )
    verify_integrity(data, source=source)
    end = len(data) - DIGEST_BYTES
    offset = _CHECKPOINT_PREFIX.size + header_length
    if offset > end:
        raise WireFormatError(
            f"session checkpoint {source} declares a {header_length}-byte "
            f"header but holds only {end - _CHECKPOINT_PREFIX.size} bytes"
        )
    try:
        header = json.loads(data[_CHECKPOINT_PREFIX.size:offset].decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise WireFormatError(
            f"session checkpoint {source} has a corrupted header: {error}"
        ) from error
    if not isinstance(header, dict):
        raise WireFormatError(
            f"session checkpoint {source} has a corrupted header (expected "
            f"an object, got {type(header).__name__})"
        )
    for field, kind in _HEADER_FIELDS.items():
        value = header.get(field, {} if field == "extra" else None)
        if not isinstance(value, kind):
            raise WireFormatError(
                f"session checkpoint {source} has a corrupted header: field "
                f"{field!r} must be a {kind.__name__}, got "
                f"{type(value).__name__}"
            )
    state: Dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        try:
            name, dtype, shape = entry
            dtype = np.dtype(dtype)
            valid = (
                isinstance(name, str)
                and name not in state
                and dtype.kind in _STATE_KINDS
                and isinstance(shape, list)
                and all(isinstance(axis, int) and axis >= 0 for axis in shape)
            )
        except (TypeError, ValueError):
            valid = False
        if not valid:
            raise WireFormatError(
                f"session checkpoint {source} has a corrupted array table "
                f"entry {entry!r} (need a new name, a numeric dtype and a "
                f"non-negative shape)"
            )
        count = math.prod(shape)
        if count * dtype.itemsize > end - offset:
            raise WireFormatError(
                f"session checkpoint {source} array {name!r} needs "
                f"{count * dtype.itemsize} bytes but only {end - offset} remain"
            )
        try:
            state[name] = np.frombuffer(data, dtype, count, offset).reshape(shape)
        except (ValueError, OverflowError) as error:
            # An empty array whose other axes (or rank) numpy cannot hold.
            raise WireFormatError(
                f"session checkpoint {source} has a corrupted array table "
                f"entry {entry!r}: {error}"
            ) from error
        offset += state[name].nbytes
    if offset != end:
        raise WireFormatError(
            f"session checkpoint {source} has {end - offset} trailing byte(s) "
            f"after its state arrays"
        )
    if "num_reports" not in state:
        raise WireFormatError(
            f"session checkpoint {source} carries no accumulator state"
        )
    return header, state
