"""Long-lived server-side aggregation sessions.

An :class:`AggregationSession` is the durable aggregator of the split
deployment: it is built from a :class:`~repro.service.ProtocolSpec` (the
out-of-band contract with the clients), ingests report batches either as
in-memory objects or as wire frames (:meth:`submit`), can be queried
mid-stream without consuming its state (:meth:`snapshot`), and survives
process restarts through :meth:`checkpoint`/:meth:`restore` — the restored
session resumes the aggregation bit-for-bit.

The checkpoint file is a single ``.npz`` archive: a JSON header (format
version, the spec, the domain's attribute names, session counters) next to
the accumulator's :meth:`~repro.protocols.base.Accumulator.state_dict`
arrays.  Nothing in it is pickled, so checkpoints are safe to load from
untrusted storage — a malformed file raises
:class:`~repro.core.exceptions.WireFormatError` instead of executing code.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import zipfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from ..core.domain import Domain
from ..core.exceptions import (
    AggregationError,
    ProtocolConfigurationError,
    WireFormatError,
)
from ..observability import trace
from .spec import ProtocolSpec

__all__ = ["CHECKPOINT_FORMAT_VERSION", "AggregationSession"]

#: Version stamp carried by every checkpoint file.  Bump on layout changes.
#: Version 2 added the embedded SHA-256 integrity digest; version-1 files
#: (no digest) are still restored as legacy checkpoints.
CHECKPOINT_FORMAT_VERSION = 2

_SUPPORTED_CHECKPOINT_VERSIONS = (1, 2)

_HEADER_KEY = "header"
_STATE_PREFIX = "state__"

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
        :class:`AggregationError` carrying the readable spec diff.
        """
        if not isinstance(other, AggregationSession):
            raise AggregationError(
                f"can only merge another AggregationSession, "
                f"got {type(other).__name__}"
            )
        mismatch = ProtocolSpec.from_protocol(self._protocol).diff(
            ProtocolSpec.from_protocol(other._protocol),
            ignore_options=self._protocol.tuning_options(),
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
        """The checkpoint archive as in-memory bytes (no file involved).

        Byte-for-byte the content :meth:`checkpoint` would have written,
        ready to ship over a wire (the topology tier's ``STATE`` frames) and
        to hand to :meth:`restore_bytes` on the other side.  ``extra`` is an
        optional JSON-serializable metadata object stored in the header and
        surfaced as :attr:`checkpoint_extra` after restore.
        """
        state = self._accumulator.state_dict()
        header = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "spec": self._spec.to_dict(),
            "attributes": list(self._domain.attributes),
            "session": {
                "report_batches": self._report_batches,
                "wire_batches": self._wire_batches,
                "wire_reports": self._wire_reports,
                "wire_bytes_total": self._wire_bytes,
            },
        }
        if extra is not None:
            if not isinstance(extra, dict):
                raise ProtocolConfigurationError(
                    f"checkpoint extra metadata must be a dict, "
                    f"got {type(extra).__name__}"
                )
            try:
                json.dumps(extra)
            except (TypeError, ValueError) as error:
                raise ProtocolConfigurationError(
                    f"checkpoint extra metadata is not JSON-serializable: "
                    f"{error}"
                ) from error
            header["extra"] = extra
        state_arrays = {
            key: np.asarray(value) for key, value in state.items()
        }
        # Stamp the header with a SHA-256 over the header itself plus every
        # state array (name, dtype, shape, bytes): np.savez stores members
        # uncompressed, so at-rest corruption that dodges the zip CRC is
        # still caught on restore and the file quarantined.
        from ..resilience.integrity import embed_integrity

        header = embed_integrity(header, state_arrays)
        arrays = {
            _STATE_PREFIX + key: value for key, value in state_arrays.items()
        }
        buffer = io.BytesIO()
        np.savez(
            buffer,
            **{_HEADER_KEY: np.array(json.dumps(header))},
            **arrays,
        )
        return buffer.getvalue()

    def checkpoint(
        self, path: PathLike, *, extra: Optional[Dict[str, Any]] = None
    ) -> Path:
        """Write the session (spec + domain + accumulator state) to ``path``.

        The file is self-contained: :meth:`restore` rebuilds an equivalent
        session in a fresh process and the resumed aggregation finalizes to
        estimates bit-for-bit identical to an uninterrupted run.  The write
        is atomic (temp file + ``os.replace``), so an interrupted
        checkpoint leaves the previous one intact.  ``extra`` is optional
        JSON metadata stored in the header (see :meth:`checkpoint_bytes`).
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
        # temp file and only an atomic os.replace makes them visible.
        handle = tempfile.NamedTemporaryFile(
            mode="wb",
            dir=path.parent,
            prefix=path.name + ".",
            suffix=".tmp",
            delete=False,
        )
        temp_path = Path(handle.name)
        try:
            with handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            # NamedTemporaryFile creates 0600; give the checkpoint the same
            # umask-governed mode a plain open() would have produced, so
            # other-user readers (backup jobs, merge_checkpoints) keep
            # working across the atomic-write change.
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(temp_path, 0o666 & ~umask)
            os.replace(temp_path, path)
        except BaseException:
            try:
                temp_path.unlink()
            except OSError:
                pass
            raise

    @classmethod
    def restore(cls, path: PathLike) -> "AggregationSession":
        """Rebuild a checkpointed session; the aggregation resumes exactly."""
        path = Path(path)
        with trace.span("session.restore"):
            return cls._restore_path(path)

    @classmethod
    def _restore_path(cls, path: Path) -> "AggregationSession":
        try:
            if path.is_file() and path.stat().st_size == 0:
                raise WireFormatError(
                    f"session checkpoint {path} is empty (zero bytes) — the "
                    f"write was interrupted before any data landed; restore "
                    f"from an earlier checkpoint or discard the file"
                )
            archive = np.load(path, allow_pickle=False)
        except (OSError, ValueError, zipfile.BadZipFile) as error:
            raise WireFormatError(
                f"cannot read session checkpoint {path}: {error}"
            ) from error
        return cls._restore_archive(archive, str(path))

    @classmethod
    def restore_bytes(cls, data: bytes) -> "AggregationSession":
        """Rebuild a session from :meth:`checkpoint_bytes` output."""
        try:
            archive = np.load(io.BytesIO(bytes(data)), allow_pickle=False)
        except (OSError, ValueError, zipfile.BadZipFile) as error:
            raise WireFormatError(
                f"cannot read session checkpoint <bytes>: {error}"
            ) from error
        return cls._restore_archive(archive, "<bytes>")

    @classmethod
    def _restore_archive(cls, archive, path: str) -> "AggregationSession":
        try:
            with archive:
                if _HEADER_KEY not in archive.files:
                    raise WireFormatError(
                        f"{path} is not a session checkpoint (no header entry)"
                    )
                try:
                    header = json.loads(str(archive[_HEADER_KEY][()]))
                except (json.JSONDecodeError, ValueError) as error:
                    raise WireFormatError(
                        f"session checkpoint {path} has a corrupted header: "
                        f"{error}"
                    ) from error
                version = header.get("format_version")
                if version not in _SUPPORTED_CHECKPOINT_VERSIONS:
                    raise WireFormatError(
                        f"session checkpoint {path} uses format version "
                        f"{version!r}; this library speaks version(s) "
                        f"{_SUPPORTED_CHECKPOINT_VERSIONS}"
                    )
                for field in ("spec", "attributes", "session"):
                    if field not in header:
                        raise WireFormatError(
                            f"session checkpoint {path} is missing the header "
                            f"field {field!r}"
                        )
                if not isinstance(header["session"], dict):
                    raise WireFormatError(
                        f"session checkpoint {path} has a corrupted 'session' "
                        f"header field (expected an object, got "
                        f"{type(header['session']).__name__})"
                    )
                try:
                    spec = ProtocolSpec.from_dict(header["spec"])
                    domain = Domain(header["attributes"])
                except (TypeError, ValueError) as error:
                    raise WireFormatError(
                        f"session checkpoint {path} has a corrupted header: "
                        f"{error}"
                    ) from error
                state = {
                    name[len(_STATE_PREFIX):]: archive[name]
                    for name in archive.files
                    if name.startswith(_STATE_PREFIX)
                }
        except zipfile.BadZipFile as error:
            # np.savez stores members uncompressed but zip still CRCs them,
            # so a flipped bit often surfaces here, on the member read —
            # not at np.load time.
            raise WireFormatError(
                f"session checkpoint {path} is corrupted: {error}"
            ) from error
        if "num_reports" not in state:
            raise WireFormatError(
                f"session checkpoint {path} carries no accumulator state"
            )
        extra = header.get("extra", {})
        if not isinstance(extra, dict):
            raise WireFormatError(
                f"session checkpoint {path} has a corrupted 'extra' header "
                f"field (expected an object, got {type(extra).__name__})"
            )
        # Integrity comes last so structural problems keep their specific
        # messages; a version-2 checkpoint must carry a digest and match it,
        # a version-1 legacy file simply has none to check.
        from ..resilience.integrity import verify_integrity

        verify_integrity(header, state, source=path, require=version >= 2)
        session = cls(spec, domain)
        session._accumulator.load_state(state)
        counters = header["session"]
        session._report_batches = int(counters.get("report_batches", 0))
        session._wire_batches = int(counters.get("wire_batches", 0))
        session._wire_reports = int(counters.get("wire_reports", 0))
        session._wire_bytes = int(counters.get("wire_bytes_total", 0))
        session.checkpoint_extra = extra
        return session

    def __repr__(self) -> str:
        return (
            f"AggregationSession(spec={self._spec.describe()}, "
            f"d={self._domain.dimension}, num_reports={self.num_reports})"
        )
