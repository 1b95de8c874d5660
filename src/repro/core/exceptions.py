"""Exception hierarchy for the ``repro`` library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to distinguish configuration problems from runtime ones.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class DomainError(ReproError):
    """A domain description is invalid (e.g. zero attributes, bad names)."""


class PrivacyBudgetError(ReproError):
    """An epsilon value or budget split is invalid (non-positive, NaN...)."""


class MarginalQueryError(ReproError):
    """A marginal query is malformed or outside the supported workload."""


class ProtocolConfigurationError(ReproError):
    """A protocol was configured with inconsistent parameters."""


class AggregationError(ReproError):
    """Aggregation failed, e.g. reports are missing or have the wrong shape."""


class WireFormatError(ReproError):
    """A serialized report frame or checkpoint cannot be decoded.

    Raised for truncated/corrupted buffers, wire-format version mismatches,
    unknown report kinds and payloads whose fields fail dtype/shape
    validation."""


class CheckpointIntegrityError(WireFormatError):
    """A checkpoint's SHA-256 trailer does not match its content.

    The checkpoint's header or state arrays were altered after the write
    — a torn disk, a bit flip, or tampering.  The resilience layer
    quarantines such files to ``*.corrupt`` instead of folding bad state
    into an aggregation."""


class SpoolError(ReproError):
    """A client report spool cannot be read or appended.

    Raised when the append-only frame log is corrupted beyond its torn
    tail (mid-log damage) or an append/commit cannot be made durable."""


class PartialCoverageError(ReproError):
    """A finalize would silently drop acknowledged reports.

    Raised by strict-mode finalize paths when collectors are lost or the
    received report count falls short of what was expected; carries the
    :class:`~repro.resilience.CoverageReport` describing the gap."""

    def __init__(self, message: str, coverage=None):
        super().__init__(message)
        self.coverage = coverage


class ExecutionError(ReproError):
    """A parallel execution backend failed or was driven incorrectly."""


class CollectionServiceError(ReproError):
    """A network collection exchange failed (rejection, protocol violation).

    Raised on the client side of the collection service when the server
    rejects the spec handshake, answers out of protocol, or disappears
    mid-session."""


class DatasetError(ReproError):
    """A dataset is malformed (wrong dtype, wrong width, empty...)."""


class EncodingError(ReproError):
    """Categorical-to-binary encoding failed or was given bad cardinalities."""


class ConvergenceError(ReproError):
    """An iterative estimator (e.g. EM decoding) failed to converge."""
