"""End-to-end resilience layer: policies, spooling, integrity, coverage.

This package is the single home of the system's failure-handling
vocabulary.  It is imported by the server and topology tiers but imports
only ``repro.core`` and ``repro.theory`` itself, so it stays free of
networking dependencies and usable from any layer (including the chaos
test harness).

* :mod:`~repro.resilience.policies` — :class:`RetryPolicy` /
  :class:`TimeoutPolicy` / :class:`CircuitBreaker` and the
  :class:`ResilienceConfig` bundle that rides manifests and CLI flags.
* :mod:`~repro.resilience.defaults` — the one documented table every
  default comes from.
* :mod:`~repro.resilience.spool` — :class:`ReportSpool`, the durable
  store-and-forward log that makes clients crash-safe.
* :mod:`~repro.resilience.integrity` — the checkpoint SHA-256 trailer
  check and corrupt-file quarantine.
* :mod:`~repro.resilience.coverage` — :class:`CoverageReport`, the
  expected/received/lost ledger behind degraded-mode finalize.
* :mod:`~repro.resilience.chaos` — reusable fault injectors for tests
  and the CI chaos-smoke job.
"""

from .coverage import (
    STATUS_LOST,
    STATUS_OK,
    STATUS_QUARANTINED,
    STATUS_RECOVERED,
    CollectorCoverage,
    CoverageReport,
)
from .defaults import (
    default_breaker_policy,
    default_resilience_config,
    default_retry_policy,
    default_timeout_policy,
)
from .integrity import (
    DIGEST_ALGORITHM,
    quarantine_checkpoint,
    verify_integrity,
)
from .policies import (
    CircuitBreaker,
    CircuitBreakerPolicy,
    ResilienceConfig,
    RetryPolicy,
    TimeoutPolicy,
)
from .spool import ReportSpool

__all__ = [
    "RetryPolicy",
    "TimeoutPolicy",
    "CircuitBreaker",
    "CircuitBreakerPolicy",
    "ResilienceConfig",
    "default_retry_policy",
    "default_timeout_policy",
    "default_breaker_policy",
    "default_resilience_config",
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
