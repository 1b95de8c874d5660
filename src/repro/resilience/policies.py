"""The one retry schedule every networked retry site speaks.

:class:`RetryPolicy` says how many times to retry and how long to wait
between attempts: retry number ``n`` (1-based) sleeps ``n * base_delay``,
a linear schedule without jitter, so a seeded fault run replays the same
sleeps.  Retrying is safe because the marginals are exact sums folded
once per report: idempotency tokens, the durable ACK and the failover
oracle decide *whether* a group counts, and the schedule only decides
*when* it is tried again.  The default values live in
:mod:`repro.resilience.defaults`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.exceptions import ProtocolConfigurationError

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Linear backoff for retrying one operation against one target.

    Attributes
    ----------
    max_retries:
        Retries *after* the first attempt (``0`` means try exactly once).
    base_delay:
        Seconds before the first retry; retry ``n`` waits
        ``n * base_delay``.
    """

    max_retries: int = 3
    base_delay: float = 0.2

    def __post_init__(self):
        if self.max_retries < 0:
            raise ProtocolConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if not self.base_delay >= 0:
            raise ProtocolConfigurationError(
                f"base_delay must be >= 0, got {self.base_delay}"
            )

    def delay(self, attempt: int) -> float:
        """Seconds to sleep before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ProtocolConfigurationError(
                f"retry attempts are 1-based, got {attempt}"
            )
        return self.base_delay * attempt

    def should_retry(self, attempt: int) -> bool:
        """Whether retry number ``attempt`` (1-based) may still run."""
        return attempt <= self.max_retries
