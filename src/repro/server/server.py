"""The asyncio network collection service.

:class:`CollectionServer` is the deployment-shaped aggregator: an
``asyncio`` TCP server that accepts report streams framed by
:mod:`repro.server.framing`, shards connections round-robin across
per-worker :class:`~repro.service.AggregationSession`\\ s, and finalizes —
through the sessions' exact ``merge`` algebra — to the same estimates as an
in-process :meth:`~repro.protocols.base.MarginalReleaseProtocol.run_streaming`
over the same encoded reports, bit for bit.

Each connection carries any number of *groups*, one after another::

    client                                server
    ------                                ------
    HELLO {spec, spec_hash, attributes, token?}
                                          OK {spec_hash, shard}   (or ERR + close)
    report frame (RPRB bytes)  xN
    FIN
                                          ACK {frames, reports, bytes}
    HELLO ...                             (the next group, same connection)

that is, ``(HELLO frame* FIN -> OK ... ACK)*``, in the manner of HTTP/1.1
persistent connections.  Every group, durable server or not, folds its
frames into an accumulator of its own, and only at ``FIN`` is it
committed — merged into the shard, its token recorded, one record appended
to the commit log and synced when the server is durable — before the
``ACK`` goes out.  After the ``ACK`` the connection waits for the next
``HELLO``; every ``HELLO`` is checked again.  A connection that dies
mid-group therefore leaves no trace of that group (the groups it ACK'd
before stay committed), and a retried group is folded exactly once.  The
server reads each message as it arrives and sends the control answers of
one read in one write, so a client that has been answered ``OK`` before
may send ``HELLO``, its frames and ``FIN`` in one write and get ``OK`` and
``ACK`` back in one: one round trip per group, and no connect, accept or
close at all once its connection is open.

Misbehaving clients — spec mismatches, malformed or truncated frames,
report frames before ``HELLO`` — are rejected *per connection*: the server
answers with an ``ERR`` control frame carrying the reason (and the spec
diff, when that is the reason), closes that connection, and keeps serving
everyone else.  :meth:`CollectionServer.stop` closes connections idle
between groups at once and waits only for those in the middle of one.
Backpressure is structural: reads happen in bounded chunks against
``asyncio``'s flow-controlled stream buffer, and the frame decoder never
holds more than one maximal frame (``max_frame_bytes``) plus one read
chunk per connection.

A server built with a ``checkpoint_dir`` is durable: its disk state is a
snapshot plus a commit log (:mod:`repro.server.durable`), every ``ACK``
follows the sync of its group's log record, and a restarted server resumes
from that state.  A server built without one keeps its state in memory.
"""

from __future__ import annotations

import asyncio
import logging
import os
import socket
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..core.domain import Domain
from ..core.exceptions import (
    ProtocolConfigurationError,
    ReproError,
    WireFormatError,
)
from ..observability import (
    MetricsRegistry,
    MetricsSnapshot,
    get_registry,
    trace,
)
from ..observability.scrape import MetricsScrapeServer
from ..protocols.wire import MAX_PAYLOAD_BYTES
from ..service.session import AggregationSession
from ..service.spec import ProtocolSpec
from .framing import (
    ACK,
    FIN,
    HELLO,
    OK,
    ERR,
    PULL,
    STATE,
    STATS,
    ControlMessage,
    FrameDecoder,
    encode_control,
)
from .durable import DURABLE_STATE_FILENAME, CommitLog, restore_durable
from .handshake import check_hello, check_token, spec_hash

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "DEFAULT_BATCH_MAX_USERS",
    "DURABLE_STATE_FILENAME",
    "CollectionServer",
]

_logger = logging.getLogger(__name__)

#: Default per-frame cap for network submissions (64 MiB).  Far above any
#: realistic report batch, far below the codec's 1 GiB hard limit — a
#: connection cannot make one shard buffer a gigabyte on a forged header.
DEFAULT_MAX_FRAME_BYTES = 64 << 20

#: Pending user reports at which a connection unpacks its parsed frames
#: as one block and folds it into its group accumulator (one ``update``
#: per fold).
DEFAULT_BATCH_MAX_USERS = 8192

#: Bytes asked of a connection's stream per read.
READ_CHUNK_BYTES = 1 << 16

#: How long :meth:`CollectionServer.stop` lets a connection in the middle
#: of a group run on to its ``ACK`` before closing it.
DRAIN_TIMEOUT_SECONDS = 10.0

PathLike = Union[str, Path]


class _Group:
    """One group's reports, between its ``HELLO`` and its ``FIN``.

    Each frame passes its structural checks on arrival
    (:meth:`~repro.protocols.base.MarginalReleaseProtocol.parse_report_frame`)
    and waits, parsed, in a pending list.  Whenever the pending frames
    reach :data:`DEFAULT_BATCH_MAX_USERS` users, and once more at ``FIN``,
    they are unpacked as one block and folded into the group's own
    accumulator as one ``update``
    (:meth:`~repro.protocols.base.MarginalReleaseProtocol.decode_report_block`,
    the concatenation of their one-by-one decodes).  A group that has
    never folded also folds at the end of each read that brought it
    frames (:meth:`end_of_read`), so reports that do not fit the domain
    earn their ``ERR`` before the client's ``FIN``, and a group that
    arrives in one read is one block and one ``update``.  A value error in
    a later frame (a bound, a padding bit, a non-canonical width) earns
    its ``ERR`` at the fold of its block, which comes before any commit or
    ``ACK`` of the group.  Nothing reaches the shard before
    :meth:`CollectionServer._commit`.  ``repro aggregate`` folds a frame
    stream as one group too.
    """

    def __init__(self, protocol, domain: Domain):
        self._protocol = protocol
        self._domain = domain
        self.accumulator = None
        self._pending: List[Any] = []
        self._pending_users = 0
        self.frames = self.reports = self.bytes = 0

    def add(self, frame, nbytes: int) -> None:
        users = frame.num_users
        self._pending.append(frame)
        self._pending_users += users
        self.frames += 1
        self.reports += users
        self.bytes += nbytes
        if self._pending_users >= DEFAULT_BATCH_MAX_USERS:
            self.fold()

    def end_of_read(self) -> None:
        """Fold the pending frames if this group has never folded."""
        if self.accumulator is None:
            self.fold()

    def fold(self) -> None:
        if not self._pending:
            return
        if self.accumulator is None:
            self.accumulator = self._protocol.accumulator(self._domain)
        with trace.span("ingest.flush") as span:
            span.annotate(frames=len(self._pending), users=self._pending_users)
            self.accumulator.update(
                self._protocol.decode_report_block(self._pending, self._domain)
            )
        self._pending = []
        self._pending_users = 0

    def counts(self) -> Dict[str, int]:
        return {"frames": self.frames, "reports": self.reports, "bytes": self.bytes}


class _Reject(Exception):
    """Close this connection with an ``ERR`` frame; the server keeps running."""

    def __init__(self, reason: str, diff: Optional[List[str]] = None):
        super().__init__(reason)
        self.reason = reason
        self.diff = list(diff) if diff else None

    def payload(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {"error": self.reason}
        if self.diff:
            body["diff"] = self.diff
        return body


class CollectionServer:
    """A sharded, checkpointing TCP collector for one protocol spec.

    Parameters
    ----------
    spec:
        The collection contract (a :class:`ProtocolSpec` or a live protocol
        instance), exactly as for :class:`AggregationSession`.
    domain:
        The attribute domain every client must report over.
    host, port:
        Listen address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    shards:
        Number of independent :class:`AggregationSession` shards; incoming
        connections are assigned round-robin, and every group a connection
        carries folds into its shard.  Estimates are shard-invariant by the
        accumulators' merge algebra.
    max_frame_bytes:
        Per-frame payload cap for this server (backpressure bound).
    reuse_port:
        Bind with ``SO_REUSEPORT`` so several collector processes can
        share one address, the kernel load-balancing connections across
        them (a :class:`~repro.topology.TopologySupervisor` given a
        ``port``, which ``repro serve --processes`` runs).  The kernel
        balances connections, not groups: every group a kept-alive
        connection carries goes to the process that accepted it.
    checkpoint_dir:
        Makes the server durable.  After a group is merged into its shard
        at ``FIN``, one record holding the group and its token is appended
        to ``checkpoint_dir/state.log`` and synced *before* the ``ACK``
        goes out; ``state.npz`` is a snapshot rewritten on :meth:`start`,
        at compaction and on :meth:`stop` (:mod:`repro.server.durable`).
        Snapshot plus log therefore always contain every acknowledged
        group, which is what lets a restarted server, or a supervisor
        re-merging a dead collector, lose no ACK'd report.  The state
        there is restored on construction.  Without it the server keeps
        its state in memory only.
    stop_after_reports:
        When set, :meth:`serve_until_stopped` returns once this many user
        reports have been committed since construction, restored ones not
        counted (groups in flight finish first).
    report_observer:
        Optional callable invoked with each committed group's user-report
        count (always positive; counters only advance at commit), after
        the group is durable on a durable server — the hook a
        :class:`~repro.topology.TopologySupervisor` uses to keep each
        collector's count of committed reports.
    collector_id:
        Stable name this collector reports in ``STATE`` answers and stamps
        into its durable checkpoints (defaults to ``host:port``).  The
        topology tier keys fan-in merges and failure recovery by it.
    registry:
        The :class:`~repro.observability.MetricsRegistry` this server's
        counters live in.  Defaults to a fresh per-server registry (so
        side-by-side servers in one process never cross-count);
        :meth:`metrics_snapshot` merges it with the process-wide default
        registry, where deep instrumentation (kernel dispatch, resilience
        events, span histograms) accumulates.
    metrics_host, metrics_port:
        When ``metrics_port`` is set, :meth:`start` also binds a plain-HTTP
        Prometheus scrape endpoint (``GET /metrics``) on it serving
        :meth:`metrics_snapshot`; ``metrics_port=0`` picks a free port
        (read it back from :attr:`metrics_port`).

    Clients may carry a ``token`` in their ``HELLO``, durable server or
    not; a replayed token is re-ACK'd with its recorded counts instead of
    folded twice, making retries idempotent.

    A connection's control answers are gathered while it processes one
    read and sent as one write.  At ``FIN`` they leave once
    :meth:`_commit` returns, so a group whose ``HELLO``, frames and
    ``FIN`` arrive together costs one send, its ``ACK`` still after the
    durable sync.  An ``OK`` is never withheld: it is sent at the end of
    the read that carried its ``HELLO``, ahead of any ``ERR``, ``STATE``
    or ``STATS`` answer, and also when the commit fails (a full disk).
    """

    def __init__(
        self,
        spec,
        domain: Domain,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        shards: int = 1,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        reuse_port: bool = False,
        checkpoint_dir: Optional[PathLike] = None,
        stop_after_reports: Optional[int] = None,
        report_observer: Optional[Callable[[int], None]] = None,
        collector_id: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        metrics_host: str = "127.0.0.1",
        metrics_port: Optional[int] = None,
    ):
        if shards < 1:
            raise ProtocolConfigurationError(
                f"shard count must be >= 1, got {shards}"
            )
        if not 0 < max_frame_bytes <= MAX_PAYLOAD_BYTES:
            # Validated here, not per connection: a bad value must fail the
            # server at construction, never crash connection handlers.
            raise ProtocolConfigurationError(
                f"max_frame_bytes must be in (0, {MAX_PAYLOAD_BYTES}], "
                f"got {max_frame_bytes}"
            )
        if reuse_port and not hasattr(socket, "SO_REUSEPORT"):
            raise ProtocolConfigurationError(
                "this platform does not support SO_REUSEPORT"
            )
        if stop_after_reports is not None and stop_after_reports < 1:
            raise ProtocolConfigurationError(
                f"stop_after_reports must be >= 1, got {stop_after_reports}"
            )
        self._sessions = [
            AggregationSession(spec, domain) for _ in range(shards)
        ]
        self._spec = self._sessions[0].spec
        self._domain = domain
        # The handshake compares canonical forms so clients that spell
        # defaults differently still pass.
        self._canonical_spec = ProtocolSpec.from_protocol(
            self._sessions[0].protocol
        )
        self._spec_hash = spec_hash(self._canonical_spec)
        self._host = host
        self._requested_port = port
        self._max_frame_bytes = int(max_frame_bytes)
        self._reuse_port = bool(reuse_port)
        self._report_observer = report_observer
        self._checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self._stop_after_reports = stop_after_reports

        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event = asyncio.Event()
        self._handlers: set = set()
        self._writers: set = set()
        # Writers of connections blocked on a read between two groups:
        # stop() closes these at once instead of waiting for them.
        self._idle_writers: set = set()
        self._draining = False
        self._port: Optional[int] = None
        self._started_at: Optional[float] = None
        self._stopped_at: Optional[float] = None

        self._connections_total = 0
        self._connections_active = 0
        self._connections_completed = 0
        self._connections_rejected = 0
        self._connections_dropped = 0
        self._groups_committed = 0
        self._groups_duplicate = 0
        self._frames_total = 0
        self._reports_total = 0
        self._resumed_reports = 0
        self._bytes_total = 0
        self._checkpoints_written = 0

        # The operational counters above stay plain ints — they steer
        # behaviour (stop_after_reports) and must count identically with
        # metrics on or off.  They only advance (reports at commit), and
        # _sync_registry mirrors them into the registry on every
        # stats/snapshot read.
        self._registry = registry if registry is not None else MetricsRegistry()
        counter = self._registry.counter
        connections = counter(
            "repro_server_connections_total",
            "Connections by final outcome (opened counts at accept).",
            labels=("outcome",),
        )
        groups = counter(
            "repro_server_groups_total",
            "Groups answered at FIN: committed, or re-ACK'd as a duplicate "
            "token.",
            labels=("outcome",),
        )
        self._metric_counters = {
            "frames": counter(
                "repro_server_frames_total",
                "Report frames in committed groups.",
            ),
            "reports": counter(
                "repro_server_reports_total",
                "User reports in committed groups.",
            ),
            "bytes": counter(
                "repro_server_bytes_total",
                "Report payload bytes in committed groups.",
            ),
            "connections_opened": connections.labels(outcome="opened"),
            "connections_completed": connections.labels(outcome="completed"),
            "connections_rejected": connections.labels(outcome="rejected"),
            "connections_dropped": connections.labels(outcome="dropped"),
            "groups_committed": groups.labels(outcome="committed"),
            "groups_duplicate": groups.labels(outcome="duplicate"),
            "checkpoints": counter(
                "repro_server_checkpoints_total", "Checkpoints written."
            ),
            "log_records": counter(
                "repro_server_commit_log_records_total",
                "Commit-log records appended (durable servers).",
            ),
            "log_bytes": counter(
                "repro_server_commit_log_bytes_total",
                "Commit-log bytes appended (durable servers).",
            ),
            "log_compactions": counter(
                "repro_server_commit_log_compactions_total",
                "Snapshots written because the commit log outgrew the last.",
            ),
        }
        self._metric_synced: Dict[str, float] = {}
        self._metric_active = self._registry.gauge(
            "repro_server_connections_active", "Connections currently open."
        )
        self._metric_shard_reports = self._registry.gauge(
            "repro_server_shard_reports",
            "User reports folded into each shard session.",
            labels=("shard",),
        )
        self._metrics_host = metrics_host
        self._metrics_port_requested = metrics_port
        self._scrape_server: Optional[MetricsScrapeServer] = None

        self._explicit_collector_id = collector_id
        self._acked_tokens: Dict[str, Dict[str, int]] = {}
        # The last HELLO accepted, as repr((spec, spec_hash, attributes)):
        # an exact repeat skips the canonical spec check.
        self._accepted_hello: Optional[str] = None
        # True while a durable server holds commits that its disk state
        # lacks (a write failed); the next commit then writes a snapshot
        # instead of appending, and a replayed token is re-ACK'd only
        # after a write that covers it succeeds.
        self._unsaved_commits = False
        self._log = (
            CommitLog(self._checkpoint_dir)
            if self._checkpoint_dir is not None
            else None
        )
        self._compactions = 0
        if self._log is not None:
            self._resume_durable_state()

    def _resume_durable_state(self) -> None:
        """Fold the snapshot and its commit log back in (crash restart).

        Durable state that fails restore — a bad layout, or an integrity
        mismatch in the snapshot or a complete log record — is quarantined
        to ``*.corrupt`` with a readable report and the collector starts
        empty, rather than refusing to serve: clients hold the idempotency
        tokens and will replay whatever the lost state contained.
        """
        try:
            restored = restore_durable(self._checkpoint_dir)
        except WireFormatError as error:
            _logger.error(
                "durable state in %s is corrupt (%s); quarantined, starting "
                "empty — clients will replay unacknowledged groups",
                self._checkpoint_dir,
                error,
            )
            return
        if restored is None:
            return
        self._sessions[0].merge(restored)
        self._acked_tokens.update(restored.checkpoint_extra["acked_tokens"])
        self._log.seq = restored.checkpoint_extra["log_seq"]
        metadata = restored.metadata
        self._reports_total = self._resumed_reports = restored.num_reports
        self._frames_total = int(metadata["wire_batches"])
        self._bytes_total = int(metadata["wire_bytes_total"])

    # ------------------------------------------------------------------ #
    # introspection

    @property
    def spec(self) -> ProtocolSpec:
        return self._spec

    @property
    def domain(self) -> Domain:
        return self._domain

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> Optional[int]:
        """The bound port (``None`` before :meth:`start`)."""
        return self._port

    @property
    def metrics_port(self) -> Optional[int]:
        """The scrape endpoint's bound port (``None`` when not serving)."""
        if self._scrape_server is not None:
            return self._scrape_server.port
        return None

    @property
    def registry(self) -> MetricsRegistry:
        """This server's own metrics registry."""
        return self._registry

    @property
    def collector_id(self) -> str:
        """The stable name this collector signs STATE answers with."""
        if self._explicit_collector_id is not None:
            return self._explicit_collector_id
        return f"{self._host}:{self._port or self._requested_port}"

    @property
    def acked_tokens(self) -> Dict[str, Dict[str, int]]:
        """Recorded counts per acknowledged group token (a copy)."""
        return {token: dict(counts) for token, counts in self._acked_tokens.items()}

    @property
    def num_shards(self) -> int:
        return len(self._sessions)

    @property
    def sessions(self) -> Sequence[AggregationSession]:
        """The live shard sessions (read them, don't mutate them)."""
        return tuple(self._sessions)

    @property
    def num_reports(self) -> int:
        return sum(session.num_reports for session in self._sessions)

    @property
    def stop_requested(self) -> bool:
        return self._stop_event.is_set()

    def _sync_registry(self) -> None:
        """Mirror the operational ints into the registry's monotonic series.

        Each sync advances the registry counters by the delta since the
        last sync.
        """
        from ..observability.metrics import metrics_enabled

        if not metrics_enabled():
            return
        values = {
            "frames": self._frames_total,
            "reports": self._reports_total,
            "bytes": self._bytes_total,
            "connections_opened": self._connections_total,
            "connections_completed": self._connections_completed,
            "connections_rejected": self._connections_rejected,
            "connections_dropped": self._connections_dropped,
            "groups_committed": self._groups_committed,
            "groups_duplicate": self._groups_duplicate,
            "checkpoints": self._checkpoints_written,
        }
        if self._log is not None:
            values["log_records"] = self._log.records
            values["log_bytes"] = self._log.bytes
            values["log_compactions"] = self._compactions
        for key, value in values.items():
            delta = value - self._metric_synced.get(key, 0)
            if delta > 0:
                self._metric_counters[key].inc(delta)
                self._metric_synced[key] = value
        self._metric_active.set(self._connections_active)
        for index, session in enumerate(self._sessions):
            self._metric_shard_reports.labels(shard=f"{index:02d}").set(
                session.num_reports
            )

    def metrics_snapshot(self) -> MetricsSnapshot:
        """This server's registry merged with the process-wide one.

        The per-server registry holds the ingest counters; the process
        registry holds everything the deep instrumentation records (span
        histograms, kernel dispatch, resilience events).  STATS answers
        and the scrape endpoint both serve this merged view.
        """
        self._sync_registry()
        snapshot = self._registry.snapshot()
        process = get_registry()
        if process is not self._registry:
            snapshot = snapshot.merge(process.snapshot())
        return snapshot

    def stats(self) -> Dict[str, Any]:
        """A point-in-time snapshot of the server's counters."""
        self._sync_registry()
        now = time.monotonic()
        elapsed = None
        if self._started_at is not None:
            elapsed = (self._stopped_at or now) - self._started_at
        times = os.times()
        return {
            "address": {"host": self._host, "port": self._port},
            "collector_id": self.collector_id,
            "acked_groups": len(self._acked_tokens),
            "spec": self._spec.to_dict(),
            "spec_hash": self._spec_hash,
            "num_attributes": len(self._domain.attributes),
            "uptime_seconds": elapsed,
            "connections": {
                "total": self._connections_total,
                "active": self._connections_active,
                "completed": self._connections_completed,
                "rejected": self._connections_rejected,
                "dropped": self._connections_dropped,
            },
            "groups": {
                "committed": self._groups_committed,
                "duplicate": self._groups_duplicate,
            },
            "frames": self._frames_total,
            "reports": self._reports_total,
            "bytes": self._bytes_total,
            # Restored reports were not collected in this uptime.
            "reports_per_second": (
                (self._reports_total - self._resumed_reports) / elapsed
                if elapsed
                else None
            ),
            "shard_reports": [
                session.num_reports for session in self._sessions
            ],
            "checkpoints_written": self._checkpoints_written,
            # The whole process's CPU: a collector runs one server.
            "cpu": {"user_seconds": times.user, "sys_seconds": times.system},
            "commit_log": (
                {
                    "records": self._log.records,
                    "bytes": self._log.bytes,
                    "compactions": self._compactions,
                }
                if self._log is not None
                else None
            ),
        }

    # ------------------------------------------------------------------ #
    # lifecycle

    async def start(self) -> "CollectionServer":
        """Bind the listening socket and start accepting clients."""
        if self._server is not None:
            raise ProtocolConfigurationError("the server is already started")
        # A stopped server may be started again (the shard sessions carry
        # over); clear any stale stop request so serve_until_stopped serves.
        self._stop_event.clear()
        self._draining = False
        # The resume is announced on the listening line, so that a serving
        # process's first log line is always the one naming its port.
        resumed = (
            f", resumed {self._resumed_reports} report(s) from "
            f"{self._checkpoint_dir}"
            if self._resumed_reports and self._started_at is None
            else ""
        )
        if self._log is not None:
            # The snapshot the commit log grows from: it folds in whatever
            # log a restart replayed, and truncates it.
            try:
                self.checkpoint()
            except OSError as error:
                self._unsaved_commits = True
                _logger.error("startup snapshot failed: %s", error)
        extra = {"reuse_port": True} if self._reuse_port else {}
        self._server = await asyncio.start_server(
            self._on_client, self._host, self._requested_port, **extra
        )
        self._port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        if self._metrics_port_requested is not None:
            self._scrape_server = MetricsScrapeServer(
                self.metrics_snapshot,
                host=self._metrics_host,
                port=self._metrics_port_requested,
            )
            await self._scrape_server.start()
            _logger.info(
                "metrics scrape endpoint on http://%s:%d/metrics",
                self._metrics_host,
                self._scrape_server.port,
            )
        _logger.info(
            "collection server for %s listening on %s:%d (%d shard(s)%s)",
            self._spec.describe(),
            self._host,
            self._port,
            self.num_shards,
            resumed,
        )
        return self

    def request_stop(self) -> None:
        """Ask :meth:`serve_until_stopped` to shut the server down."""
        self._stop_event.set()

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`request_stop` (or ``stop_after_reports``) fires.

        Starts the server if :meth:`start` was not called yet, then blocks
        until the stop condition, lets groups in flight finish and shuts
        down (writing a final snapshot on a durable server).
        """
        if self._server is None:
            await self.start()
        await self._stop_event.wait()
        await self.stop()

    async def stop(self) -> None:
        """Stop accepting clients, drain handlers, write a final snapshot.

        Connections idle between two groups are closed at once (and count
        as completed); a connection in the middle of a group gets up to
        :data:`DRAIN_TIMEOUT_SECONDS` to reach its ``ACK``, and is closed
        after it.  A final snapshot that fails is logged, not raised: every
        ACK'd group is already in the commit log, and the shutdown still
        completes.
        """
        if self._server is None:
            return
        self._server.close()
        self._draining = True
        for writer in list(self._idle_writers):
            writer.close()
        if self._handlers:
            done, pending = await asyncio.wait(
                set(self._handlers), timeout=DRAIN_TIMEOUT_SECONDS
            )
            if pending:
                _logger.warning(
                    "force-closing %d connection(s) still open after the "
                    "%.1fs drain timeout",
                    len(pending),
                    DRAIN_TIMEOUT_SECONDS,
                )
                for writer in list(self._writers):
                    writer.close()
                await asyncio.gather(*pending, return_exceptions=True)
        await self._server.wait_closed()
        try:
            if self._log is not None:
                self.checkpoint()
        except OSError as error:  # disk full: the log still holds every ACK
            _logger.error("shutdown snapshot failed: %s", error)
        finally:
            if self._log is not None:
                self._log.close()
            if self._scrape_server is not None:
                await self._scrape_server.stop()
                self._scrape_server = None
            self._stopped_at = time.monotonic()
            self._server = None

    # ------------------------------------------------------------------ #
    # aggregation results

    def combined_session(self) -> AggregationSession:
        """A fresh session holding every shard's state, shards untouched.

        The shards are all built from this server's spec and domain, so
        they merge without :meth:`AggregationSession.merge`'s spec diff.
        """
        combined = AggregationSession(self._spec, self._domain)
        for session in self._sessions:
            combined.merge(session)
        return combined

    def _merged_shards(self) -> AggregationSession:
        """Every shard's state, to read only (a commit or a ``PULL``
        answer): a lone shard is used as is, several are merged."""
        if len(self._sessions) == 1:
            return self._sessions[0]
        return self.combined_session()

    def finalize(self):
        """Merge the shards and finalize to the protocol's estimator."""
        return self.combined_session().snapshot()

    def checkpoint(self) -> Path:
        """Snapshot the merged shards + token map to ``state.npz`` now and
        truncate the commit log — one file, so there is never a torn
        multi-file snapshot to recover from."""
        if self._log is None:
            raise ProtocolConfigurationError(
                "this server was built without a checkpoint_dir"
            )
        with trace.span("server.checkpoint.durable"):
            return self._snapshot()

    def _snapshot(self) -> Path:
        path = self._log.snapshot(
            self._merged_shards(),
            {"collector_id": self.collector_id, "acked_tokens": self._acked_tokens},
        )
        self._unsaved_commits = False
        self._checkpoints_written += 1
        return path

    def _make_durable(
        self, group: _Group, token: Optional[str], counts: Dict[str, int]
    ) -> None:
        """Append the committed group to the log and sync it before its ACK.

        After a failed write only a snapshot can cover the groups it
        lost, so the next commit writes one instead of appending.  A
        compaction that fails is logged and retried at the next commit:
        the group itself is already durable in the log.
        """
        with trace.span("server.checkpoint.durable"):
            if self._unsaved_commits:
                self._snapshot()
                return
            self._unsaved_commits = True
            self._log.append(token, counts, group.accumulator)
            self._unsaved_commits = False
            if self._log.compaction_due:
                try:
                    self._snapshot()
                except OSError as error:
                    _logger.error("commit-log compaction failed: %s", error)
                else:
                    self._compactions += 1

    # ------------------------------------------------------------------ #
    # connection handling

    async def _on_client(self, reader, writer) -> None:
        with trace.span("server.accept"):
            task = asyncio.current_task()
            self._handlers.add(task)
            self._writers.add(writer)
            decoder = FrameDecoder(max_frame_bytes=self._max_frame_bytes)
        try:
            await self._handle_connection(reader, writer, decoder)
        except Exception:  # pragma: no cover - last-resort guard
            _logger.exception("connection handler crashed")
        finally:
            self._handlers.discard(task)
            self._writers.discard(writer)
            with trace.span("server.close"):
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    async def _handle_connection(
        self, reader, writer, decoder: FrameDecoder
    ) -> None:
        index = self._connections_total
        self._connections_total += 1
        self._connections_active += 1
        shard_index = index % len(self._sessions)
        shard = self._sessions[shard_index]
        parse, domain = shard.protocol.parse_report_frame, shard.domain
        # The open group (None between groups) and its HELLO's token.
        group: Optional[_Group] = None
        token: Optional[str] = None
        # Control answers made while processing one read, sent as one write.
        replies: List[bytes] = []
        try:
            while True:
                idle = group is None and decoder.at_frame_boundary
                if idle and self._draining:
                    break
                if idle:
                    self._idle_writers.add(writer)
                try:
                    chunk = await reader.read(READ_CHUNK_BYTES)
                finally:
                    self._idle_writers.discard(writer)
                # stop() closed this idle connection under the read: a
                # group that arrived with the close is left unanswered and
                # unfolded rather than committed without its ACK.
                if not chunk or (idle and self._draining):
                    break
                decoder.absorb(chunk)
                for item in decoder.frames():
                    if isinstance(item, ControlMessage):
                        if item.kind == HELLO:
                            if group is not None:
                                raise _Reject("duplicate HELLO")
                            with trace.span("server.hello"):
                                problems = self._check_hello(item.payload)
                            if problems:
                                raise _Reject("spec mismatch", problems)
                            group = _Group(shard.protocol, self._domain)
                            token = item.payload.get("token")
                            replies.append(
                                encode_control(
                                    OK,
                                    {
                                        "spec_hash": self._spec_hash,
                                        "shard": shard_index,
                                    },
                                )
                            )
                        elif item.kind == PULL:
                            # The topology tier's fan-in probe: answer with
                            # stats or the full session state.  Allowed
                            # before HELLO — the puller is a control-plane
                            # peer, not a report client.
                            replies.append(self._answer_pull(item.payload))
                            await self._send(writer, replies)
                        elif item.kind == STATS:
                            # The observability probe (`repro watch`, live
                            # dashboards): stats plus the merged metrics
                            # snapshot.  Control-plane like PULL.
                            replies.append(self._answer_stats())
                            await self._send(writer, replies)
                        elif item.kind == FIN:
                            if group is None:
                                raise _Reject("FIN before HELLO")
                            ack_payload = self._commit(shard, group, token)
                            group, token = None, None
                            with trace.span("server.ack"):
                                # An OK made in this read leaves with the
                                # ACK, after the commit.
                                replies.append(encode_control(ACK, ack_payload))
                                await self._send(writer, replies)
                        else:
                            raise _Reject(
                                f"unexpected control frame {item.kind!r}"
                            )
                    else:
                        if group is None:
                            raise _Reject("report frame before HELLO")
                        # Parse off the receive-buffer view (the rows are
                        # copied out, so the frame never pins it); a
                        # malformed or CRC-failing payload raises right
                        # here, on the connection that sent it.
                        group.add(parse(item, domain), len(item))
                if group is not None:
                    group.end_of_read()
                if replies:
                    await self._send(writer, replies)
            if group is None and decoder.at_frame_boundary:
                # EOF between groups: every group this connection opened
                # was ACK'd (a PULL or STATS peer never opens one).
                self._connections_completed += 1
            else:
                # EOF mid-group: the client vanished, and its uncommitted
                # group (and any trailing partial frame) dies with it.
                self._connections_dropped += 1
                if not decoder.at_frame_boundary:
                    _logger.debug(
                        "connection %d closed mid-frame (%d byte(s) buffered)",
                        index,
                        decoder.buffered_bytes,
                    )
        except _Reject as rejection:
            self._connections_rejected += 1
            _logger.info("rejecting connection %d: %s", index, rejection.reason)
            replies.append(encode_control(ERR, rejection.payload()))
            await self._send_last(writer, replies)
        except ReproError as error:
            # WireFormatError (malformed frames) and every other library
            # error a hostile stream can provoke — e.g. AggregationError on
            # report frames whose shapes don't match the domain — reject
            # this connection with a readable ERR, never crash the handler.
            self._connections_rejected += 1
            _logger.info(
                "rejecting connection %d (bad submission): %s", index, error
            )
            replies.append(encode_control(ERR, {"error": str(error)}))
            await self._send_last(writer, replies)
        except (ConnectionError, OSError):
            # A commit whose write failed (a full disk) still owes its
            # HELLO's OK; a peer that is gone never reads it.
            self._connections_dropped += 1
            if replies:
                await self._send_last(writer, replies)
        finally:
            self._connections_active -= 1

    def _check_hello(self, payload: Dict[str, Any]) -> List[str]:
        """:func:`check_hello`, skipped for an exact repeat of the last
        accepted spec, hash and attributes; the token is always checked."""
        key = repr(
            (payload.get("spec"), payload.get("spec_hash"), payload.get("attributes"))
        )
        if key == self._accepted_hello:
            return check_token(payload)
        problems = check_hello(
            payload, self._canonical_spec, self._domain.attributes
        )
        if not problems:
            self._accepted_hello = key
        return problems

    def _commit(
        self,
        shard: AggregationSession,
        group: _Group,
        token: Optional[str],
    ) -> Dict[str, Any]:
        """Commit one group at its ``FIN``; returns the ACK payload.

        Fold the last pending frames, merge the group into the shard,
        record its token, append it to the commit log on a durable server
        — and only then may the caller ACK.  Counters advance here and
        nowhere else.  A replayed token is re-ACK'd with its recorded counts and
        its group dropped; on a durable server, only once a write that
        covers the token has succeeded (the first commit's write may have
        failed after the merge).
        """
        group.fold()
        if token is not None and token in self._acked_tokens:
            if self._unsaved_commits:
                self.checkpoint()
            self._groups_duplicate += 1
            return {**self._acked_tokens[token], "duplicate": True}
        counts = group.counts()
        if group.accumulator is not None:
            shard.merge_group(
                group.accumulator, frames=group.frames, wire_bytes=group.bytes
            )
        self._groups_committed += 1
        self._frames_total += group.frames
        self._reports_total += group.reports
        self._bytes_total += group.bytes
        if token is not None:
            self._acked_tokens[token] = counts
        if self._log is not None:
            self._make_durable(group, token, counts)
        if self._report_observer is not None:
            self._report_observer(group.reports)
        if (
            self._stop_after_reports is not None
            and self._reports_total - self._resumed_reports
            >= self._stop_after_reports
        ):
            self._stop_event.set()
        return counts

    def _answer_stats(self) -> bytes:
        """The answer to one ``STATS`` probe: stats + the metrics snapshot."""
        with trace.span("server.stats.answer"):
            body = {
                "collector_id": self.collector_id,
                "stats": self.stats(),
                "metrics": self.metrics_snapshot().state_dict(),
            }
            return encode_control(STATS, body)

    def _answer_pull(self, payload: Dict[str, Any]) -> bytes:
        """The ``STATE`` frame answering one ``PULL`` (stats or state)."""
        what = payload.get("what", "state")
        raw = b""
        if what == "stats":
            body: Dict[str, Any] = {
                "collector_id": self.collector_id,
                "what": "stats",
                "stats": self.stats(),
                "metrics": self.metrics_snapshot().state_dict(),
            }
        elif what == "state":
            # Only what the fan-in merges: the token map stays in the
            # durable snapshot, where restart dedupe and the failover
            # oracle read it.
            combined = self._merged_shards()
            raw = combined.checkpoint_bytes(
                extra={"collector_id": self.collector_id}
            )
            body = {
                "collector_id": self.collector_id,
                "what": "state",
                "reports": combined.num_reports,
            }
        else:
            raise _Reject(
                f"unknown PULL target {what!r}; expected 'stats' or 'state'"
            )
        with trace.span("topology.pull.answer") as span:
            frame = encode_control(STATE, body, raw)
            span.annotate(what=what, bytes=len(frame))
        return frame

    @staticmethod
    async def _send(writer, replies: List[bytes]) -> None:
        """Send the answers made so far as one write, and drain."""
        data = b"".join(replies)
        replies.clear()
        writer.write(data)
        await writer.drain()

    @classmethod
    async def _send_last(cls, writer, replies: List[bytes]) -> None:
        """Send what a closing connection still owes, if its peer is there."""
        try:
            await cls._send(writer, replies)
        except (ConnectionError, OSError):
            pass  # the peer is already gone; the rejection still counted
