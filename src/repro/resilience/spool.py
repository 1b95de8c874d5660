"""Durable client-side report spooling (store-and-forward).

A :class:`ReportSpool` is an append-only frame log a
:class:`~repro.server.LoadGenerator` writes *before* first transmitting a
report group, plus a commit cursor appended once the group is
acknowledged.  If the client process dies mid-run, a restarted client
opens the same spool and replays exactly the recorded frame bytes for
every uncommitted group — under the *same* idempotency token, so a
durable-ACK collector that already folded the group simply re-ACKs it and
no report is ever double-counted.  Committed groups replay as their
recorded acknowledgement counts without touching the network.

Log format (little-endian, one record at a time; data records are
written and fsync'd before the group is allowed on the wire, commit
markers are buffered and written out at the next sync or at close —
never fsync'd — because losing one only causes a harmless idempotent
replay)::

    record   := magic kind key payload digest
    magic    := b"SPL1"
    kind     := b"D" (data: a group's frames) | b"C" (commit: its acks)
    key      := u32 length + UTF-8 idempotency token
    payload  := kind D: u32 frame count, then per frame u32 length + bytes
                kind C: u32 length + JSON acknowledgement counts
    digest   := SHA-256 over magic..payload (32 bytes)

Recovery tolerates exactly one *torn tail*: a final record that is
truncated or digest-broken (the crash happened mid-append) is discarded
and the file truncated back to the last good record.  Damage anywhere
else — bad magic, or a digest mismatch with valid records after it —
means the log itself is untrustworthy and raises
:class:`~repro.core.exceptions.SpoolError` instead of guessing.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.exceptions import SpoolError
from ..observability import get_registry, trace

__all__ = ["ReportSpool", "SPOOL_MAGIC"]

_SPOOL_COUNTERS = None


def _spool_counters():
    """Lazy spool telemetry on the process registry (created once)."""
    global _SPOOL_COUNTERS
    if _SPOOL_COUNTERS is None:
        registry = get_registry()
        _SPOOL_COUNTERS = (
            registry.counter(
                "repro_spool_records_total",
                "Records appended to client spools, by kind.",
                labels=("kind",),
            ),
            registry.counter(
                "repro_spool_bytes_total",
                "Bytes appended to client spools (record + digest).",
            ),
        )
    return _SPOOL_COUNTERS

SPOOL_MAGIC = b"SPL1"
_KIND_DATA = b"D"
_KIND_COMMIT = b"C"
_U32 = struct.Struct("<I")
_DIGEST_SIZE = 32


class _Torn(Exception):
    """Internal: the record at this offset is an incomplete tail write."""


class ReportSpool:
    """Append-only durable log of report groups and their commits.

    Parameters
    ----------
    path:
        The spool file.  Created (with parents) if absent; an existing
        file is scanned so :meth:`pending_groups` /
        :meth:`committed_groups` reflect the previous run.

    Every data append is written and fsync'd before it returns: the
    durability the replay contract depends on.
    """

    def __init__(self, path: str):
        self._path = str(path)
        self._groups: Dict[str, List[bytes]] = {}
        self._commits: Dict[str, Dict[str, Any]] = {}
        self._order: List[str] = []
        self._buffer = bytearray()
        self._closed = False
        # The file itself is opened lazily, on the first write-out: a
        # fresh spool costs no file creation until a record actually
        # needs disk, and the create, the write, and the fsync then
        # collapse into a single sync() call (see append_group).
        self._fh = None
        parent = os.path.dirname(os.path.abspath(self._path))
        os.makedirs(parent, exist_ok=True)
        self._recover()

    # ------------------------------------------------------------------
    # recovery

    def _recover(self) -> None:
        if not os.path.exists(self._path):
            return
        with open(self._path, "rb") as fh:
            blob = fh.read()
        offset = 0
        good_end = 0
        while offset < len(blob):
            try:
                kind, key, payload, next_offset = self._parse_record(blob, offset)
            except _Torn:
                break
            except SpoolError as exc:
                raise SpoolError(
                    f"report spool {self._path} is corrupted at byte "
                    f"{offset}: {exc}"
                ) from exc
            self._apply(kind, key, payload, offset)
            offset = next_offset
            good_end = next_offset
        if good_end < len(blob):
            # Torn tail from a crash mid-append: drop it so the next
            # append starts on a record boundary.
            with open(self._path, "r+b") as fh:
                fh.truncate(good_end)
                fh.flush()
                os.fsync(fh.fileno())

    def _parse_record(
        self, blob: bytes, offset: int
    ) -> Tuple[bytes, str, bytes, int]:
        def take(n: int) -> bytes:
            nonlocal offset
            if offset + n > len(blob):
                raise _Torn()
            chunk = blob[offset : offset + n]
            offset += n
            return chunk

        start = offset
        magic = take(4)
        if magic != SPOOL_MAGIC:
            raise SpoolError(
                f"bad record magic {magic!r} (expected {SPOOL_MAGIC!r})"
            )
        kind = take(1)
        if kind not in (_KIND_DATA, _KIND_COMMIT):
            raise SpoolError(f"unknown record kind {kind!r}")
        (key_len,) = _U32.unpack(take(4))
        key_bytes = take(key_len)
        if kind == _KIND_DATA:
            (frame_count,) = _U32.unpack(take(4))
            for _ in range(frame_count):
                (frame_len,) = _U32.unpack(take(4))
                take(frame_len)
        else:
            (json_len,) = _U32.unpack(take(4))
            take(json_len)
        payload = blob[start + 4 + 1 + 4 + key_len : offset]
        body = blob[start:offset]
        digest = take(_DIGEST_SIZE)
        if hashlib.sha256(body).digest() != digest:
            if offset >= len(blob):
                # Digest-broken final record: a torn write, not damage.
                raise _Torn()
            raise SpoolError("record digest mismatch (mid-log damage)")
        try:
            key = key_bytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SpoolError(f"record key is not UTF-8: {exc}") from exc
        return kind, key, payload, offset

    def _apply(self, kind: bytes, key: str, payload: bytes, offset: int) -> None:
        if kind == _KIND_DATA:
            frames: List[bytes] = []
            pos = 4
            (frame_count,) = _U32.unpack(payload[:4])
            for _ in range(frame_count):
                (frame_len,) = _U32.unpack(payload[pos : pos + 4])
                pos += 4
                frames.append(payload[pos : pos + frame_len])
                pos += frame_len
            if key not in self._groups:
                self._order.append(key)
            self._groups[key] = frames
        else:
            (json_len,) = _U32.unpack(payload[:4])
            try:
                counts = json.loads(payload[4 : 4 + json_len].decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise SpoolError(
                    f"commit record at byte {offset} holds invalid JSON: {exc}"
                ) from exc
            if not isinstance(counts, dict):
                raise SpoolError(
                    f"commit record at byte {offset} must hold a JSON "
                    f"object, got {type(counts).__name__}"
                )
            self._commits[key] = counts

    # ------------------------------------------------------------------
    # appends

    def _append(
        self, kind: bytes, key: str, payload: bytes, sync: bool = True
    ) -> None:
        key_bytes = key.encode("utf-8")
        body = b"".join(
            (SPOOL_MAGIC, kind, _U32.pack(len(key_bytes)), key_bytes, payload)
        )
        self._buffer += body + hashlib.sha256(body).digest()
        records, append_bytes = _spool_counters()
        records.labels(kind="data" if kind == _KIND_DATA else "commit").inc()
        append_bytes.inc(len(body) + _DIGEST_SIZE)
        if sync:
            self.sync()

    def append_group(
        self, key: str, frames: Sequence[bytes], *, sync: bool = True
    ) -> None:
        """Durably record a group's frames before they go on the wire.

        The default performs the group's entire disk cost — the lazy
        file creation, one write, one fsync — in a single :meth:`sync`.
        ``sync=False`` only buffers the record in memory for a caller
        that wants to batch several records into a later sync; the
        groups must not hit the wire until that sync returns.
        """
        if key in self._groups:
            raise SpoolError(
                f"group {key!r} is already spooled in {self._path}"
            )
        frames = [bytes(frame) for frame in frames]
        payload = b"".join(
            [_U32.pack(len(frames))]
            + [_U32.pack(len(frame)) + frame for frame in frames]
        )
        self._append(_KIND_DATA, key, payload, sync=sync)
        self._groups[key] = frames
        self._order.append(key)

    def sync(self) -> None:
        """Write out every buffered record, then fsync (see ``append_group``).

        This is the only method that touches the disk on the append path
        — including the lazy creation of the spool file itself — so the
        entire write-side cost is a handful of syscalls in one place.
        """
        try:
            with trace.span("spool.sync") as span:
                span.annotate(bytes=len(self._buffer))
                if self._buffer:
                    if self._fh is None:
                        self._fh = open(self._path, "ab")
                    self._fh.write(self._buffer)
                    self._buffer = bytearray()
                    self._fh.flush()
                if self._fh is not None:
                    os.fsync(self._fh.fileno())
        except OSError as exc:
            raise SpoolError(
                f"cannot sync report spool {self._path}: {exc}"
            ) from exc

    def commit_group(self, key: str, counts: Dict[str, Any]) -> None:
        """Durably record a group's acknowledgement so replay skips it."""
        if key not in self._groups:
            raise SpoolError(
                f"cannot commit unknown group {key!r} in {self._path}"
            )
        if key in self._commits:
            raise SpoolError(
                f"group {key!r} is already committed in {self._path}"
            )
        blob = json.dumps(counts, sort_keys=True).encode("utf-8")
        # Commit markers defer their write to the next sync() or to
        # close(): a marker lost in a crash merely makes the group look
        # pending, and a pending replay is idempotent (the collector
        # re-ACKs the recorded token), so durability buys nothing but
        # latency here.  Data records, in contrast, must be durable
        # before their frames hit the wire.
        self._append(
            _KIND_COMMIT, key, _U32.pack(len(blob)) + blob, sync=False
        )
        self._commits[key] = dict(counts)

    # ------------------------------------------------------------------
    # inspection

    @property
    def path(self) -> str:
        return self._path

    def pending_groups(self) -> Dict[str, List[bytes]]:
        """Spooled-but-uncommitted groups, in append order."""
        return {
            key: list(self._groups[key])
            for key in self._order
            if key not in self._commits
        }

    def committed_groups(self) -> Dict[str, Dict[str, Any]]:
        """Committed groups and their recorded acknowledgement counts."""
        return {key: dict(counts) for key, counts in self._commits.items()}

    def frames_for(self, key: str) -> Optional[List[bytes]]:
        frames = self._groups.get(key)
        return list(frames) if frames is not None else None

    def __len__(self) -> int:
        return len(self._groups)

    def close(self) -> None:
        # Write out anything still buffered — in practice only commit
        # markers, whose appends defer their write — but never fsync:
        # losing a commit marker merely makes the group look pending,
        # and a pending replay is idempotent, not damage.  Durability of
        # the final write is left to the kernel.
        if self._closed:
            return
        self._closed = True
        try:
            if self._buffer:
                if self._fh is None:
                    self._fh = open(self._path, "ab")
                self._fh.write(self._buffer)
                self._buffer = bytearray()
        except OSError as exc:
            raise SpoolError(
                f"cannot write report spool {self._path} at close: {exc}"
            ) from exc
        finally:
            if self._fh is not None and not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "ReportSpool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        pending = len(self._groups) - len(self._commits)
        return (
            f"ReportSpool({self._path!r}, groups={len(self._groups)}, "
            f"pending={pending})"
        )
