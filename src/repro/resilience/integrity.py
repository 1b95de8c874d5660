"""Checkpoint integrity: the SHA-256 trailer and corrupt-file quarantine.

Every checkpoint the system writes (session ``checkpoint()`` files, the
durable-ACK ``state.npz``, topology ``STATE`` payloads — they all share
one layout, documented in :mod:`repro.service.session`) ends in a 32-byte
SHA-256 of every byte before it.  :func:`seal_integrity` appends that
trailer on write and :func:`verify_integrity` checks it on read, before
anything else in the checkpoint is parsed, so a torn write,
a truncation or a flipped bit anywhere past the magic and version raises
:class:`~repro.core.exceptions.CheckpointIntegrityError`.  The restore
paths then call :func:`quarantine_checkpoint` instead of folding silent
garbage into an aggregation.
"""

from __future__ import annotations

import hashlib
import os
import time
from pathlib import Path
from typing import List, Optional, Tuple, Union

from ..core.exceptions import CheckpointIntegrityError
from ..observability import get_registry

__all__ = [
    "DIGEST_ALGORITHM",
    "DIGEST_BYTES",
    "seal_integrity",
    "verify_integrity",
    "quarantine_checkpoint",
]

DIGEST_ALGORITHM = "sha256"

#: Size of the digest trailer that ends every checkpoint.
DIGEST_BYTES = hashlib.sha256().digest_size


def seal_integrity(parts: List[Union[bytes, memoryview]]) -> bytes:
    """Join ``parts`` into one frame that ends in the SHA-256 of them all."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return b"".join([*parts, digest.digest()])


def verify_integrity(
    data: Union[bytes, bytearray], *, source: str = "<checkpoint>"
) -> None:
    """Check that ``data`` ends in the SHA-256 of everything before it.

    Raises :class:`~repro.core.exceptions.CheckpointIntegrityError` when
    the trailer is missing or does not match.
    """
    recorded = bytes(data[-DIGEST_BYTES:])
    actual = hashlib.sha256(memoryview(data)[:-DIGEST_BYTES]).digest()
    if recorded != actual:
        raise CheckpointIntegrityError(
            f"checkpoint {source} failed integrity verification: its "
            f"{DIGEST_ALGORITHM} trailer records {recorded.hex()} but the "
            f"content hashes to {actual.hex()} — the file was altered or "
            f"truncated after it was written"
        )


def quarantine_checkpoint(
    path: Union[str, Path], reason: str
) -> Tuple[Optional[Path], Path]:
    """Move a corrupt checkpoint aside and leave a readable report.

    The file at ``path`` is renamed to ``<path>.corrupt`` (a numeric
    suffix keeps repeated quarantines from clobbering each other) and a
    sibling ``<quarantined>.report.txt`` explains what happened, so an
    operator finds the evidence next to the gap instead of a crash dump.
    Returns ``(quarantined_path, report_path)``; the first is ``None``
    when ``path`` no longer exists (the report is still written).
    """
    get_registry().counter(
        "repro_checkpoints_quarantined_total",
        "Corrupt checkpoints moved aside instead of restored.",
    ).inc()
    path = Path(path)
    target = path.with_name(path.name + ".corrupt")
    counter = 1
    while target.exists():
        target = path.with_name(f"{path.name}.corrupt.{counter}")
        counter += 1
    quarantined: Optional[Path] = None
    if path.exists():
        os.replace(path, target)
        quarantined = target
    report_base = quarantined if quarantined is not None else target
    report_path = report_base.with_name(report_base.name + ".report.txt")
    lines = [
        "corrupt checkpoint quarantined",
        f"  original:    {path}",
        f"  quarantined: {quarantined if quarantined else '(file had vanished)'}",
        f"  when:        {time.strftime('%Y-%m-%d %H:%M:%S %z')}",
        f"  reason:      {reason}",
        "",
        "The aggregation continued without this file; its reports are",
        "accounted as lost in the finalize CoverageReport.  Inspect the",
        "quarantined bytes to recover state manually if possible.",
        "",
    ]
    report_path.write_text("\n".join(lines), encoding="utf-8")
    return quarantined, report_path
