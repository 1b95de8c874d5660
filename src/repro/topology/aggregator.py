"""The fan-in tier: merge per-collector snapshots into one session.

:class:`FanInAggregator` holds at most one :class:`~.pull.PulledState` per
collector id — ingesting is *last-write-wins*, so duplicated pulls are
harmless (a later snapshot of the same collector is a superset of the
earlier one) and dropped pulls are repaired by simply pulling again.  The
final :meth:`merged_session` runs the exact
:meth:`~repro.service.AggregationSession.merge` algebra over whatever
snapshots are held, which is why the tree finalizes bit-for-bit identical
to a flat ``run_streaming`` no matter how clients were routed.

:func:`walk` is the one fan-in walk that fills an aggregator from a tree,
whether the caller is the supervisor that runs it or a process holding
only its manifest.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.domain import Domain
from ..core.exceptions import CollectionServiceError, ReproError, WireFormatError
from ..resilience.coverage import (
    STATUS_LOST,
    STATUS_OK,
    STATUS_QUARANTINED,
    STATUS_RECOVERED,
    CollectorCoverage,
    CoverageReport,
)
from ..resilience.policies import RetryPolicy
from ..server.durable import restore_durable
from ..service.session import AggregationSession
from ..service.spec import ProtocolSpec
from .pull import PulledState, pull_state

__all__ = [
    "FanIn",
    "FanInAggregator",
    "expected_by_collector",
    "read_durable",
    "union_tokens",
    "walk",
]

#: How a lost collector's reason starts when its state was quarantined.
QUARANTINED_PREFIX = "checkpoint quarantined"


class FanInAggregator:
    """Collect per-collector state snapshots and merge them exactly."""

    def __init__(self, spec, domain: Domain):
        # Borrow AggregationSession's spec/domain validation.
        template = AggregationSession(spec, domain)
        self._spec: ProtocolSpec = template.spec
        self._domain = domain
        self._states: Dict[str, PulledState] = {}

    @property
    def spec(self) -> ProtocolSpec:
        return self._spec

    @property
    def collector_ids(self) -> Tuple[str, ...]:
        """Collectors with an ingested snapshot (sorted)."""
        return tuple(sorted(self._states))

    @property
    def num_reports(self) -> int:
        """Reports across every held snapshot (each collector once)."""
        return sum(state.num_reports for state in self._states.values())

    def ingest(self, state: PulledState) -> "FanInAggregator":
        """Hold one collector's snapshot; idempotent per collector id.

        A snapshot of an already-seen collector *replaces* the previous
        one: collector state only grows, so the newest snapshot supersedes
        — this is what makes duplicated pulls and re-pulls after drops
        exact no-ops on the final merge.
        """
        if not isinstance(state, PulledState):
            raise CollectionServiceError(
                f"FanInAggregator.ingest needs a PulledState, "
                f"got {type(state).__name__}"
            )
        self._states[state.collector_id] = state
        return self

    def ingest_session(
        self,
        collector_id: str,
        session: AggregationSession,
        acked_tokens: Optional[Dict[str, Dict[str, int]]] = None,
    ) -> "FanInAggregator":
        """Ingest a locally-recovered session (a dead collector's
        checkpoint) under its collector id."""
        return self.ingest(
            PulledState(
                collector_id=str(collector_id),
                session=session,
                acked_tokens=dict(acked_tokens or {}),
            )
        )

    def discard(self, collector_id: str) -> bool:
        """Drop a held snapshot (e.g. its collector restarted and will be
        pulled live instead).  True if one was held."""
        return self._states.pop(str(collector_id), None) is not None

    async def pull(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 10.0,
        retry: Optional[RetryPolicy] = None,
    ) -> PulledState:
        """Pull one collector over the wire and ingest its snapshot.

        Pulls are idempotent snapshot reads, so retrying under a
        :class:`~repro.resilience.RetryPolicy` is always safe.
        """
        state = await pull_state(host, port, timeout=timeout, retry=retry)
        self.ingest(state)
        return state

    def acked_tokens(self) -> Dict[str, Dict[str, int]]:
        """Union of acknowledged-group tokens across held snapshots."""
        return union_tokens(self._states.values())

    def reports_by_collector(self) -> Dict[str, int]:
        """Report count of every held snapshot, by collector id."""
        return {
            collector_id: state.num_reports
            for collector_id, state in self._states.items()
        }

    def merged_session(self) -> AggregationSession:
        """A fresh session holding every snapshot's state, exactly once."""
        merged = AggregationSession(self._spec, self._domain)
        for _, state in sorted(self._states.items()):
            merged.merge(state.session)
        return merged

    def coverage_report(
        self,
        expected: Optional[Dict[str, int]] = None,
        lost: Optional[Dict[str, str]] = None,
        statuses: Optional[Dict[str, str]] = None,
    ) -> CoverageReport:
        """The expected/received/lost ledger over the held snapshots.

        ``expected`` maps collector ids to the report counts the client
        side saw acknowledged (the exact-loss accounting); ``lost`` maps
        collectors known to be gone without durable state to a readable
        reason; ``statuses`` overrides the per-collector status label
        (e.g. a supervisor marking a snapshot ``recovered``).  Collectors
        appearing in any of the three but without a snapshot count as
        zero received.
        """
        expected = dict(expected or {})
        lost = dict(lost or {})
        statuses = dict(statuses or {})
        received = self.reports_by_collector()
        report = CoverageReport()
        for collector_id in sorted(
            set(received) | set(expected) | set(lost) | set(statuses)
        ):
            if collector_id in lost:
                status, detail = STATUS_LOST, lost[collector_id]
            else:
                status, detail = STATUS_OK, ""
            status = statuses.get(collector_id, status)
            report.add(
                CollectorCoverage(
                    collector_id=collector_id,
                    expected=expected.get(collector_id),
                    received=received.get(collector_id, 0),
                    status=status,
                    detail=detail,
                )
            )
        return report

    def finalize(
        self,
        *,
        allow_partial: bool = False,
        expected: Optional[Dict[str, int]] = None,
        lost: Optional[Dict[str, str]] = None,
        coverage: Optional[CoverageReport] = None,
    ):
        """Merge and finalize to the protocol's estimator.

        Coverage-aware: when ``expected`` counts, known-``lost``
        collectors, or a prebuilt ``coverage`` report reveal missing
        reports, the default strict mode raises
        :class:`~repro.core.exceptions.PartialCoverageError` (carrying
        the report) instead of silently under-counting;
        ``allow_partial=True`` finalizes anyway and attaches the
        :class:`~repro.resilience.CoverageReport` to the estimator's
        metadata.  With no expectations and no losses this is exactly the
        old unconditional finalize.
        """
        if coverage is None:
            coverage = self.coverage_report(expected=expected, lost=lost)
        if not allow_partial:
            coverage.raise_if_partial("topology finalize")
        estimator = self.merged_session().snapshot()
        estimator.metadata["coverage"] = coverage.to_dict()
        return estimator


def union_tokens(states: Iterable[PulledState]) -> Dict[str, Dict[str, int]]:
    """The acknowledged-group tokens of ``states``, in one map."""
    return {
        token: dict(counts)
        for state in states
        for token, counts in state.acked_tokens.items()
    }


@dataclass
class FanIn:
    """What :func:`walk` gathered from a tree's collectors."""

    aggregator: FanInAggregator
    #: Collector ids that did not answer their ``PULL``.
    unreachable: List[str] = field(default_factory=list)
    #: Collector id -> why its reports are gone.
    lost: Dict[str, str] = field(default_factory=dict)
    #: Collector id -> coverage status (``recovered`` from durable state,
    #: ``lost`` or ``quarantined`` when that state is gone).
    statuses: Dict[str, str] = field(default_factory=dict)
    #: One readable line per collector read from disk.
    notes: List[str] = field(default_factory=list)

    def _lose(self, collector_id: str, reason: str) -> None:
        self.lost[collector_id] = reason
        self.statuses[collector_id] = (
            STATUS_QUARANTINED
            if reason.startswith(QUARANTINED_PREFIX)
            else STATUS_LOST
        )


async def walk(
    aggregator: FanInAggregator,
    *,
    pull: Sequence[Mapping[str, Any]] = (),
    read: Sequence[Mapping[str, Any]] = (),
    recovered: Optional[Mapping[str, PulledState]] = None,
    lost: Optional[Mapping[str, str]] = None,
    fallback: bool = True,
    partial: bool = False,
    timeout: float = 5.0,
    retry: Optional[RetryPolicy] = None,
) -> FanIn:
    """Fill ``aggregator`` from every collector of a tree, each by its state.

    Collectors are described as in a manifest (``collector_id``, ``host``,
    ``port``, ``checkpoint_dir``):

    * ``pull`` — live collectors, pulled over the wire, all at once.  One
      that does not answer is read from disk when ``fallback`` is set and
      raises :class:`CollectionServiceError` otherwise.
    * ``recovered`` — states a health check already restored from dead
      collectors, with ``lost`` naming those whose state was gone.  They
      are not read again: a quarantined state has already been moved.
    * ``read`` — stopped collectors, read from disk.

    A disk read goes through :func:`read_durable`.  Strict mode (the
    default) raises when it finds no state, or a state that fails
    restore; ``partial=True`` records those collectors in
    :attr:`FanIn.lost` instead, quarantining a state that fails
    verification.
    """
    result = FanIn(aggregator)
    answers = await asyncio.gather(
        *(
            aggregator.pull(
                entry["host"], int(entry["port"]), timeout=timeout, retry=retry
            )
            for entry in pull
        ),
        return_exceptions=True,
    )
    from_disk = [(entry, "stopped") for entry in read]
    for entry, answer in zip(pull, answers):
        if not isinstance(answer, BaseException):
            continue
        if not (fallback and isinstance(answer, ReproError)):
            raise CollectionServiceError(
                f"cannot pull state from live collector "
                f"{entry['collector_id']} ({entry['host']}:{entry['port']}): "
                f"{answer}"
            ) from answer
        result.unreachable.append(entry["collector_id"])
        from_disk.append((entry, "unreachable"))
    for collector_id, state in (recovered or {}).items():
        if collector_id in aggregator.collector_ids:
            continue
        aggregator.ingest(state)
        reason = (lost or {}).get(collector_id)
        if reason is None:
            result.statuses[collector_id] = STATUS_RECOVERED
        else:
            result._lose(collector_id, reason)
    for entry, why in from_disk:
        collector_id = entry["collector_id"]
        directory = Path(entry["checkpoint_dir"])
        session, reason = read_durable(directory, quarantine=partial)
        if session is not None:
            aggregator.ingest_session(
                collector_id, session, session.checkpoint_extra["acked_tokens"]
            )
            result.statuses[collector_id] = STATUS_RECOVERED
            result.notes.append(
                f"collector {collector_id} is {why}; recovered "
                f"{session.num_reports} report(s) from {directory}"
            )
        elif partial:
            result._lose(collector_id, reason)
            result.notes.append(
                f"collector {collector_id} is {why}: {reason}; counting it "
                f"as empty"
            )
        else:
            raise CollectionServiceError(
                f"collector {collector_id} is {why} and {reason}"
            )
    return result


def read_durable(
    directory: Path, *, quarantine: bool = True
) -> Tuple[Optional[AggregationSession], Optional[str]]:
    """A collector's durable state, or ``(None, why it is gone)``.

    Reads through :func:`~repro.server.durable.restore_durable`.  A state
    that fails restore is quarantined and reported gone; without
    ``quarantine`` its error is raised instead, leaving the files in place.
    """
    try:
        session = restore_durable(directory, quarantine=quarantine)
    except WireFormatError as error:
        if not quarantine:
            raise
        return None, f"{QUARANTINED_PREFIX}: {error}"
    if session is None:
        return None, f"left no durable state in {directory}"
    return session, None


def expected_by_collector(
    collectors: Sequence[Mapping[str, Any]],
    by_address: Mapping[str, Any],
) -> Dict[str, int]:
    """Client-side ACK counts by ``"host:port"`` (report counts, or a
    :class:`~repro.server.LoadReport`'s ``acked_by_target`` verbatim),
    onto collector ids."""
    ids = {
        f"{entry['host']}:{int(entry['port'])}": entry["collector_id"]
        for entry in collectors
    }
    expected: Dict[str, int] = {}
    for address, counts in by_address.items():
        collector_id = ids.get(str(address))
        if collector_id is None:
            raise CollectionServiceError(
                f"the ACK ledger credits {address}, which is not a "
                f"collector in this topology"
            )
        if isinstance(counts, Mapping):
            counts = counts.get("reports", 0)
        expected[collector_id] = expected.get(collector_id, 0) + int(counts)
    return expected
