"""End-to-end resilience layer: retry schedule, spooling, integrity, coverage.

This package is the single home of the system's failure-handling
vocabulary.  It is imported by the server and topology tiers but imports
only ``repro.core`` and ``repro.theory`` itself, so it stays free of
networking dependencies and usable from any layer.  The fault injectors
that exercise it are test tooling and live in ``tests/chaos/injectors.py``.

* :mod:`~repro.resilience.policies` — :class:`RetryPolicy`, the one
  linear retry schedule of client deliveries and fan-in pulls.
* :mod:`~repro.resilience.defaults` — the one documented table every
  default comes from.
* :mod:`~repro.resilience.spool` — :class:`ReportSpool`, the durable
  store-and-forward log that makes clients crash-safe.
* :mod:`~repro.resilience.integrity` — the checkpoint SHA-256 trailer
  check and corrupt-file quarantine.
* :mod:`~repro.resilience.coverage` — :class:`CoverageReport`, the
  expected/received/lost ledger behind degraded-mode finalize.
"""

from .coverage import (
    STATUS_LOST,
    STATUS_OK,
    STATUS_QUARANTINED,
    STATUS_RECOVERED,
    CollectorCoverage,
    CoverageReport,
)
from .integrity import (
    DIGEST_ALGORITHM,
    quarantine_checkpoint,
    verify_integrity,
)
from .policies import RetryPolicy
from .spool import ReportSpool

__all__ = [
    "RetryPolicy",
    "ReportSpool",
    "DIGEST_ALGORITHM",
    "verify_integrity",
    "quarantine_checkpoint",
    "CollectorCoverage",
    "CoverageReport",
    "STATUS_OK",
    "STATUS_RECOVERED",
    "STATUS_LOST",
    "STATUS_QUARANTINED",
]
