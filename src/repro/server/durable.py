"""A durable collector's disk state: a snapshot plus a commit log.

A durable collector (one built with a ``checkpoint_dir``) keeps two files in its checkpoint directory:

``state.npz``
    The *snapshot*: the merged shards as a session checkpoint (see
    :mod:`repro.service.session`) whose ``extra`` holds the collector id,
    the acknowledged-token map and ``log_seq``, the sequence number of the
    last commit it covers.
``state.log``
    The *commit log*: one record per group committed since, appended and
    ``fdatasync``'d before the group's ``ACK`` goes out — a write-ahead
    log after ARIES (Mohan et al., TODS 1992).

Each log entry is a checkpoint v3 frame under the magic ``b"RPRL"``
behind an eight-byte envelope, every integer little-endian::

    size  content
    4     frame length L (u32)
    4     CRC-32 of those four length bytes
    L     the frame: magic, version, header length, a JSON header
          {"seq", "token" (absent for an untokened group),
          "counts": {"frames", "reports", "bytes"}, "arrays"}, the group
          accumulator's state_dict arrays, the SHA-256 trailer

A group with no frames (``HELLO`` then ``FIN``) has no arrays; its record
still makes its token durable.  The checked length is what tells a torn
tail from corruption: bytes that end before the length they announce (or
before the envelope is whole, or that are all zeros) are a write cut short
by a crash, never ACK'd, and are dropped; a complete entry that fails its
CRC, its trailer or its layout is corruption.

Compaction: once the log holds :data:`COMPACT_RATIO` times the bytes of
the last snapshot, the collector writes a fresh snapshot through the
atomic checkpoint writer, stamped with ``log_seq``, then truncates the log
and fsyncs it.  Restart replay is then bounded by that many snapshots'
worth of bytes, and because the snapshot (which carries the token map)
grows with the collector's lifetime while the ratio stays fixed, the
amortized compaction cost per commit stays flat.

Recovery is :func:`restore_durable`, the one reader: load the snapshot,
then replay every record with ``seq > log_seq`` through ``load_state`` and
``merge_group``.  A crash between a snapshot and the truncate leaves
records the snapshot already covers; their ``seq`` skips them.
"""

from __future__ import annotations

import contextlib
import logging
import os
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from ..core.exceptions import (
    CheckpointIntegrityError,
    ReproError,
    WireFormatError,
)
from ..resilience.integrity import quarantine_checkpoint
from ..service.session import (
    LOG_RECORD_MAGIC,
    AggregationSession,
    fsync_directory,
    parse_checkpoint,
    seal_frame,
)

__all__ = [
    "COMMIT_LOG_FILENAME",
    "COMPACT_RATIO",
    "DURABLE_STATE_FILENAME",
    "CommitLog",
    "restore_durable",
]

_logger = logging.getLogger(__name__)

#: The snapshot of a durable collector.
DURABLE_STATE_FILENAME = "state.npz"
#: The commit log beside it.
COMMIT_LOG_FILENAME = "state.log"
#: Compact once the log holds this many times the last snapshot's bytes.
COMPACT_RATIO = 8

#: Frame length and the CRC-32 of its four bytes.
_ENVELOPE = struct.Struct("<II")
_COUNT_FIELDS = ("frames", "reports", "bytes")

PathLike = Union[str, Path]


class CommitLog:
    """The append side of ``state.log`` and the snapshot that truncates it.

    ``seq`` is the sequence number of the last commit made durable (in the
    log or a snapshot); ``records`` and ``bytes`` count what this process
    appended.
    """

    def __init__(self, directory: PathLike):
        self._directory = Path(directory)
        self._path = self._directory / COMMIT_LOG_FILENAME
        self._handle: Optional[int] = None
        self.seq = 0
        #: Bytes in the log now, and in the last snapshot written.
        self.size = 0
        self.snapshot_bytes = 0
        self.records = 0
        self.bytes = 0

    def _open(self) -> int:
        if self._handle is None:
            self._directory.mkdir(parents=True, exist_ok=True)
            created = not self._path.exists()
            self._handle = os.open(
                self._path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o666
            )
            self.size = os.fstat(self._handle).st_size
            if created:
                fsync_directory(self._directory)
        return self._handle

    def append(
        self,
        token: Optional[str],
        counts: Dict[str, int],
        accumulator,
    ) -> None:
        """Append one committed group and ``fdatasync`` it.

        On failure the log is cut back to where it was, best effort; the
        caller must then make the group durable by :meth:`snapshot`, never
        by another append.
        """
        header: Dict[str, Any] = {"seq": self.seq + 1, "counts": counts}
        if token is not None:
            header["token"] = token
        frame = seal_frame(
            LOG_RECORD_MAGIC,
            header,
            accumulator.state_dict() if accumulator is not None else {},
        )
        length = len(frame).to_bytes(4, "little")
        entry = _ENVELOPE.pack(len(frame), zlib.crc32(length)) + frame
        handle = self._open()
        try:
            view = memoryview(entry)
            while view:
                view = view[os.write(handle, view):]
            os.fdatasync(handle)
        except BaseException:
            with contextlib.suppress(OSError):
                os.ftruncate(handle, self.size)
            raise
        self.seq += 1
        self.size += len(entry)
        self.records += 1
        self.bytes += len(entry)

    @property
    def compaction_due(self) -> bool:
        return self.size >= COMPACT_RATIO * self.snapshot_bytes

    def snapshot(self, session: AggregationSession, extra: Dict[str, Any]) -> Path:
        """Write ``state.npz`` covering every commit so far, then truncate."""
        path = session.checkpoint(
            self._directory / DURABLE_STATE_FILENAME,
            extra={**extra, "log_seq": self.seq},
        )
        self.snapshot_bytes = path.stat().st_size
        handle = self._open()
        os.ftruncate(handle, 0)
        os.fsync(handle)
        self.size = 0
        return path

    def close(self) -> None:
        if self._handle is not None:
            os.close(self._handle)
            self._handle = None


def _records(data: bytes, source: str) -> Iterator[Tuple[dict, dict]]:
    """The complete records of a log, in order; a torn tail ends it."""
    offset = 0
    while len(data) - offset >= _ENVELOPE.size:
        length, check = _ENVELOPE.unpack_from(data, offset)
        if zlib.crc32(data[offset:offset + 4]) != check:
            if not data[offset:].strip(b"\0"):
                return  # a zero-filled tail: the append never landed
            raise CheckpointIntegrityError(
                f"commit log {source} has a corrupted record length at byte "
                f"{offset}"
            )
        start = offset + _ENVELOPE.size
        if start + length > len(data):
            return
        yield parse_checkpoint(
            data[start:start + length],
            f"{source} (record at byte {offset})",
            magic=LOG_RECORD_MAGIC,
        )
        offset = start + length


def _replay(state_path: Path, log_path: Path) -> AggregationSession:
    if not state_path.exists():
        raise WireFormatError(
            f"commit log {log_path} has no snapshot {state_path.name} beside it"
        )
    session = AggregationSession.restore(state_path)
    extra = session.checkpoint_extra
    tokens = extra.get("acked_tokens", {})
    seq = extra.get("log_seq", 0)
    if not isinstance(tokens, dict) or not isinstance(seq, int):
        raise WireFormatError(
            f"snapshot {state_path} has a corrupted acked_tokens or log_seq"
        )
    tokens = dict(tokens)
    try:
        data = log_path.read_bytes() if log_path.exists() else b""
    except OSError as error:
        raise WireFormatError(f"cannot read commit log {log_path}: {error}") from error
    covered = seq
    for header, state in _records(data, str(log_path)):
        record_seq, counts = header["seq"], header["counts"]
        if record_seq <= covered:
            continue  # the snapshot was written, the truncate was not
        source = f"commit log {log_path} record {record_seq}"
        if record_seq != seq + 1:
            raise WireFormatError(f"{source} follows record {seq}")
        if sorted(counts) != sorted(_COUNT_FIELDS) or not all(
            isinstance(value, int) and value >= 0 for value in counts.values()
        ):
            raise WireFormatError(f"{source} has corrupted counts {counts!r}")
        if state:
            try:
                group = session.protocol.accumulator(session.domain)
                group.load_state(state)
                if group.num_reports != counts["reports"]:
                    raise WireFormatError("its state and counts disagree")
                session.merge_group(
                    group, frames=counts["frames"], wire_bytes=counts["bytes"]
                )
            except (ReproError, TypeError, ValueError) as error:
                raise WireFormatError(
                    f"{source} has a corrupted state: {error}"
                ) from error
        elif counts["frames"]:
            raise WireFormatError(f"{source} has frames but no state")
        if "token" in header:
            tokens[header["token"]] = counts
        seq = record_seq
    session.checkpoint_extra = {**extra, "acked_tokens": tokens, "log_seq": seq}
    return session


def restore_durable(
    directory: PathLike, *, quarantine: bool = True
) -> Optional[AggregationSession]:
    """A durable collector's state from disk: the snapshot, log replayed.

    Returns ``None`` when ``directory`` holds neither file.  The session's
    ``checkpoint_extra`` carries ``collector_id``, ``acked_tokens`` (the
    snapshot's plus every replayed record's) and ``log_seq``, the last
    sequence number applied.  A torn last record is dropped.  A snapshot
    or record that fails verification raises
    :class:`~repro.core.exceptions.WireFormatError` (its subclass
    :class:`~repro.core.exceptions.CheckpointIntegrityError` for a trailer
    or length mismatch); with ``quarantine`` set, both files are first
    moved aside with a report beside each, so a restart starts empty
    rather than from part of the state.
    """
    directory = Path(directory)
    state_path = directory / DURABLE_STATE_FILENAME
    log_path = directory / COMMIT_LOG_FILENAME
    if not state_path.exists() and not log_path.exists():
        return None
    try:
        return _replay(state_path, log_path)
    except WireFormatError as error:
        if quarantine:
            for path in (state_path, log_path):
                if path.exists():
                    moved, report = quarantine_checkpoint(
                        path, f"durable state failed restore: {error}"
                    )
                    _logger.error(
                        "quarantined %s to %s (report: %s)", path, moved, report
                    )
        raise
