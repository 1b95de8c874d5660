"""The asyncio network collection service.

:class:`CollectionServer` is the deployment-shaped aggregator: an
``asyncio`` TCP server that accepts report streams framed by
:mod:`repro.server.framing`, shards connections round-robin across
per-worker :class:`~repro.service.AggregationSession`\\ s, and finalizes —
through the sessions' exact ``merge`` algebra — to the same estimates as an
in-process :meth:`~repro.protocols.base.MarginalReleaseProtocol.run_streaming`
over the same encoded reports, bit for bit.

Each connection follows the session protocol::

    client                                server
    ------                                ------
    HELLO {spec, spec_hash, attributes}
                                          OK {spec_hash, shard}   (or ERR + close)
    report frame (RPRB bytes)  xN
    FIN
                                          ACK {frames, reports, bytes}

Every connection is one *group*, durable server or not: its frames fold
into an accumulator of its own, and only at ``FIN`` is the group committed
— merged into the shard, its token recorded, ``state.npz`` written when
the server is durable — before the ``ACK`` goes out.  A connection that
dies mid-group therefore leaves no trace, and a retried group is folded
exactly once.

Misbehaving clients — spec mismatches, malformed or truncated frames,
report frames before ``HELLO`` — are rejected *per connection*: the server
answers with an ``ERR`` control frame carrying the reason (and the spec
diff, when that is the reason), closes that connection, and keeps serving
everyone else.  Backpressure is structural: reads happen in bounded chunks
against ``asyncio``'s flow-controlled stream buffer, and the frame decoder
never holds more than one maximal frame (``max_frame_bytes``) plus one
read chunk per connection.

The server checkpoints its shards periodically and on shutdown (atomic
temp-file-plus-rename writes via :meth:`AggregationSession.checkpoint`), so
a crashed collector resumes from ``merge_checkpoints`` without losing the
previous checkpoint to a torn write.
"""

from __future__ import annotations

import asyncio
import base64
import logging
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
from ..protocols.wire import MAX_PAYLOAD_BYTES, concat_report_batches
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
from .handshake import check_hello, spec_hash

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "DEFAULT_BATCH_MAX_USERS",
    "DURABLE_STATE_FILENAME",
    "CollectionServer",
    "merge_checkpoints",
]

_logger = logging.getLogger(__name__)

#: Default per-frame cap for network submissions (64 MiB).  Far above any
#: realistic report batch, far below the codec's 1 GiB hard limit — a
#: connection cannot make one shard buffer a gigabyte on a forged header.
DEFAULT_MAX_FRAME_BYTES = 64 << 20

#: Pending user reports at which a connection folds its decoded frames
#: into its group accumulator (one ``update`` per fold).
DEFAULT_BATCH_MAX_USERS = 8192

#: Filename of the single-file transactional checkpoint written by a
#: collector running in ``durable_acks`` mode (the whole merged state plus
#: the acknowledged-group token map, refreshed atomically before each ACK).
DURABLE_STATE_FILENAME = "state.npz"

PathLike = Union[str, Path]


class _Group:
    """One connection's reports between ``HELLO`` and ``FIN``.

    Decoded frames wait in a pending list and fold into the group's own
    accumulator as one ``update`` whenever they reach
    :data:`DEFAULT_BATCH_MAX_USERS` users, and once more at ``FIN``.  The
    first frame folds on arrival, so reports that do not fit the domain
    earn their ``ERR`` at once rather than at ``FIN``.  Exactness is
    inherited from the concatenation algebra — see
    :func:`~repro.protocols.wire.concat_report_batches` — and nothing
    reaches the shard before :meth:`CollectionServer._commit`.
    """

    def __init__(self, protocol, domain: Domain):
        self._protocol = protocol
        self._domain = domain
        self.accumulator = None
        self._pending: List[Any] = []
        self._pending_users = 0
        self.frames = self.reports = self.bytes = 0

    def add(self, decoded, nbytes: int) -> None:
        users = int(decoded.num_users)
        self._pending.append(decoded)
        self._pending_users += users
        self.frames += 1
        self.reports += users
        self.bytes += nbytes
        if (
            self.accumulator is None
            or self._pending_users >= DEFAULT_BATCH_MAX_USERS
        ):
            self.fold()

    def fold(self) -> None:
        if not self._pending:
            return
        if self.accumulator is None:
            self.accumulator = self._protocol.accumulator(self._domain)
        with trace.span("ingest.flush") as span:
            span.annotate(frames=len(self._pending), users=self._pending_users)
            self.accumulator.update(concat_report_batches(self._pending))
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
        connections are assigned round-robin.  Estimates are shard-invariant
        by the accumulators' merge algebra.
    max_frame_bytes:
        Per-frame payload cap for this server (backpressure bound).
    reuse_port:
        Bind with ``SO_REUSEPORT`` so several collector processes can
        share one address, the kernel load-balancing connections across
        them (the ``--processes`` tier; see
        :mod:`repro.server.multiproc`).
    checkpoint_dir, checkpoint_interval:
        When set, every shard is checkpointed to
        ``checkpoint_dir/shard-NN.npz`` every ``checkpoint_interval``
        seconds and once more on :meth:`stop`.
    stop_after_reports:
        When set, :meth:`serve_until_stopped` returns once this many user
        reports have been collected (the current connections drain first).
    report_observer:
        Optional callable invoked with each committed group's user-report
        count (always positive; counters only advance at commit) — the
        hook the multi-process tier uses to maintain a shared report
        counter.
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
    durable_acks:
        Make every commit durable, for the topology tier: after a group
        is merged into its shard at ``FIN``, the whole merged state (plus
        the acknowledged-group token map) is checkpointed atomically to
        ``checkpoint_dir/state.npz`` *before* the ``ACK`` goes out.  The
        last durable checkpoint therefore always contains every
        acknowledged group, which is what lets a supervisor re-merge a
        dead collector without losing ACK'd reports.  Requires
        ``checkpoint_dir``; an existing ``state.npz`` there is restored
        on construction (crash restart).

    Clients may carry a ``token`` in their ``HELLO``, durable server or
    not; a replayed token is re-ACK'd with its recorded counts instead of
    folded twice, making retries idempotent.
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
        read_chunk_bytes: int = 1 << 16,
        reuse_port: bool = False,
        checkpoint_dir: Optional[PathLike] = None,
        checkpoint_interval: Optional[float] = None,
        stop_after_reports: Optional[int] = None,
        drain_timeout: float = 10.0,
        report_observer: Optional[Callable[[int], None]] = None,
        collector_id: Optional[str] = None,
        durable_acks: bool = False,
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
        if read_chunk_bytes < 1:
            raise ProtocolConfigurationError(
                f"read_chunk_bytes must be >= 1, got {read_chunk_bytes}"
            )
        if reuse_port and not hasattr(socket, "SO_REUSEPORT"):
            raise ProtocolConfigurationError(
                "this platform does not support SO_REUSEPORT"
            )
        if checkpoint_interval is not None:
            if checkpoint_dir is None:
                raise ProtocolConfigurationError(
                    "checkpoint_interval requires checkpoint_dir"
                )
            if checkpoint_interval <= 0:
                raise ProtocolConfigurationError(
                    f"checkpoint_interval must be > 0, got {checkpoint_interval}"
                )
        if stop_after_reports is not None and stop_after_reports < 1:
            raise ProtocolConfigurationError(
                f"stop_after_reports must be >= 1, got {stop_after_reports}"
            )
        if durable_acks and checkpoint_dir is None:
            raise ProtocolConfigurationError(
                "durable_acks requires checkpoint_dir (the ACK is durable "
                "precisely because the state hits disk first)"
            )
        self._sessions = [
            AggregationSession(spec, domain) for _ in range(shards)
        ]
        self._spec = self._sessions[0].spec
        self._domain = domain
        # The handshake compares canonical forms so clients that spell
        # defaults differently (or tune pure performance knobs) still pass.
        self._canonical_spec = ProtocolSpec.from_protocol(
            self._sessions[0].protocol
        )
        self._tuning_options = self._sessions[0].protocol.tuning_options()
        self._spec_hash = spec_hash(self._canonical_spec)
        self._host = host
        self._requested_port = port
        self._max_frame_bytes = int(max_frame_bytes)
        self._read_chunk_bytes = int(read_chunk_bytes)
        self._reuse_port = bool(reuse_port)
        self._report_observer = report_observer
        self._checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self._checkpoint_interval = checkpoint_interval
        self._stop_after_reports = stop_after_reports
        self._drain_timeout = drain_timeout

        self._server: Optional[asyncio.AbstractServer] = None
        self._checkpoint_task: Optional[asyncio.Task] = None
        self._stop_event = asyncio.Event()
        self._handlers: set = set()
        self._writers: set = set()
        self._port: Optional[int] = None
        self._started_at: Optional[float] = None
        self._stopped_at: Optional[float] = None

        self._connections_total = 0
        self._connections_active = 0
        self._connections_completed = 0
        self._connections_rejected = 0
        self._connections_dropped = 0
        self._frames_total = 0
        self._reports_total = 0
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
            "checkpoints": counter(
                "repro_server_checkpoints_total", "Checkpoints written."
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
        self._durable_acks = bool(durable_acks)
        self._acked_tokens: Dict[str, Dict[str, int]] = {}
        # True while a durable server holds commits that state.npz lacks
        # (its last write failed); a replayed token is then re-ACK'd only
        # after a write that covers it succeeds.
        self._unsaved_commits = False
        if self._durable_acks:
            self._resume_durable_state()

    def _resume_durable_state(self) -> None:
        """Fold a previous ``state.npz`` back in (crash-restart path).

        A ``state.npz`` that fails restore — zero bytes, a bad layout, or
        an integrity-trailer mismatch — is quarantined to ``*.corrupt`` with a
        readable report and the collector starts empty, rather than
        refusing to serve: clients hold the idempotency tokens and will
        replay whatever the lost state contained.
        """
        state_path = self._checkpoint_dir / DURABLE_STATE_FILENAME
        if not state_path.exists():
            return
        try:
            restored = AggregationSession.restore(state_path)
        except WireFormatError as error:
            from ..resilience.integrity import quarantine_checkpoint

            quarantined, report = quarantine_checkpoint(
                state_path, f"durable state failed restore on startup: {error}"
            )
            _logger.error(
                "durable state %s is corrupt (%s); quarantined to %s "
                "(report: %s); starting empty — clients will replay "
                "unacknowledged groups",
                state_path,
                error,
                quarantined,
                report,
            )
            return
        self._sessions[0].merge(restored)
        tokens = restored.checkpoint_extra.get("acked_tokens", {})
        if isinstance(tokens, dict):
            self._acked_tokens.update(
                {str(key): dict(value) for key, value in tokens.items()}
            )
        metadata = restored.metadata
        self._reports_total = restored.num_reports
        self._frames_total = int(metadata["wire_batches"])
        self._bytes_total = int(metadata["wire_bytes_total"])
        _logger.info(
            "resumed %d durable report(s) across %d acknowledged group(s) "
            "from %s",
            restored.num_reports,
            len(self._acked_tokens),
            state_path,
        )

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
    def durable_acks(self) -> bool:
        return self._durable_acks

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
            "checkpoints": self._checkpoints_written,
        }
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
        return {
            "address": {"host": self._host, "port": self._port},
            "collector_id": self.collector_id,
            "durable_acks": self._durable_acks,
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
            "frames": self._frames_total,
            "reports": self._reports_total,
            "bytes": self._bytes_total,
            "reports_per_second": (
                self._reports_total / elapsed if elapsed else None
            ),
            "shard_reports": [
                session.num_reports for session in self._sessions
            ],
            "checkpoints_written": self._checkpoints_written,
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
        if self._checkpoint_interval is not None:
            self._checkpoint_task = asyncio.create_task(
                self._checkpoint_loop()
            )
        _logger.info(
            "collection server for %s listening on %s:%d (%d shard(s))",
            self._spec.describe(),
            self._host,
            self._port,
            self.num_shards,
        )
        return self

    def request_stop(self) -> None:
        """Ask :meth:`serve_until_stopped` to shut the server down."""
        self._stop_event.set()

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`request_stop` (or ``stop_after_reports``) fires.

        Starts the server if :meth:`start` was not called yet, then blocks
        until the stop condition, drains in-flight connections and shuts
        down (writing a final checkpoint when configured).
        """
        if self._server is None:
            await self.start()
        await self._stop_event.wait()
        await self.stop()

    async def stop(self) -> None:
        """Stop accepting clients, drain handlers, write a final checkpoint."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        if self._handlers:
            done, pending = await asyncio.wait(
                set(self._handlers), timeout=self._drain_timeout
            )
            if pending:
                _logger.warning(
                    "force-closing %d connection(s) still open after the "
                    "%.1fs drain timeout",
                    len(pending),
                    self._drain_timeout,
                )
                for writer in list(self._writers):
                    writer.close()
                await asyncio.gather(*pending, return_exceptions=True)
        if self._checkpoint_task is not None:
            self._checkpoint_task.cancel()
            try:
                await self._checkpoint_task
            except asyncio.CancelledError:
                pass
            self._checkpoint_task = None
        if self._checkpoint_dir is not None:
            self.checkpoint()
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

    def checkpoint(self) -> List[Path]:
        """Checkpoint every shard to ``checkpoint_dir/shard-NN.npz`` now.

        In ``durable_acks`` mode the checkpoint is instead the single
        transactional ``state.npz`` (merged shards + token map) — one file,
        so there is never a torn multi-file snapshot to recover from.
        """
        if self._checkpoint_dir is None:
            raise ProtocolConfigurationError(
                "this server was built without a checkpoint_dir"
            )
        if self._durable_acks:
            return [self.durable_checkpoint()]
        with trace.span("server.checkpoint") as span:
            paths = []
            for index, session in enumerate(self._sessions):
                paths.append(
                    session.checkpoint(
                        self._checkpoint_dir / f"shard-{index:02d}.npz"
                    )
                )
            span.annotate(shards=len(paths))
        self._checkpoints_written += 1
        return paths

    def durable_checkpoint(self) -> Path:
        """Atomically write the merged state + token map to ``state.npz``."""
        if self._checkpoint_dir is None:
            raise ProtocolConfigurationError(
                "this server was built without a checkpoint_dir"
            )
        with trace.span("server.checkpoint.durable"):
            path = self._merged_shards().checkpoint(
                self._checkpoint_dir / DURABLE_STATE_FILENAME,
                extra={
                    "collector_id": self.collector_id,
                    "acked_tokens": self._acked_tokens,
                },
            )
        self._unsaved_commits = False
        self._checkpoints_written += 1
        return path

    async def _checkpoint_loop(self) -> None:
        while True:
            await asyncio.sleep(self._checkpoint_interval)
            try:
                self.checkpoint()
            except OSError as error:  # disk full, permissions — keep serving
                _logger.error("periodic checkpoint failed: %s", error)

    # ------------------------------------------------------------------ #
    # connection handling

    async def _on_client(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        self._writers.add(writer)
        try:
            await self._handle_connection(reader, writer)
        except Exception:  # pragma: no cover - last-resort guard
            _logger.exception("connection handler crashed")
        finally:
            self._handlers.discard(task)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_connection(self, reader, writer) -> None:
        index = self._connections_total
        self._connections_total += 1
        self._connections_active += 1
        shard_index = index % len(self._sessions)
        shard = self._sessions[shard_index]
        group = _Group(shard.protocol, self._domain)
        greeted = False
        finished = False
        control_plane = False
        token: Optional[str] = None
        try:
            decoder = FrameDecoder(max_frame_bytes=self._max_frame_bytes)
            while not finished:
                chunk = await reader.read(self._read_chunk_bytes)
                if not chunk:
                    break
                decoder.absorb(chunk)
                for item in decoder.frames():
                    if isinstance(item, ControlMessage):
                        if item.kind == HELLO:
                            if greeted:
                                raise _Reject("duplicate HELLO")
                            problems = check_hello(
                                item.payload,
                                self._canonical_spec,
                                self._tuning_options,
                                self._domain.attributes,
                            )
                            if problems:
                                raise _Reject("spec mismatch", problems)
                            greeted = True
                            token = item.payload.get("token")
                            writer.write(
                                encode_control(
                                    OK,
                                    {
                                        "spec_hash": self._spec_hash,
                                        "shard": shard_index,
                                    },
                                )
                            )
                            await writer.drain()
                        elif item.kind == PULL:
                            # The topology tier's fan-in probe: answer with
                            # stats or the full session state.  Allowed
                            # before HELLO — the puller is a control-plane
                            # peer, not a report client.
                            control_plane = True
                            await self._answer_pull(writer, item.payload)
                        elif item.kind == STATS:
                            # The observability probe (`repro watch`, live
                            # dashboards): stats plus the merged metrics
                            # snapshot.  Control-plane like PULL.
                            control_plane = True
                            await self._answer_stats(writer)
                        elif item.kind == FIN:
                            if not greeted:
                                raise _Reject("FIN before HELLO")
                            ack_payload = self._commit(shard, group, token)
                            writer.write(encode_control(ACK, ack_payload))
                            await writer.drain()
                            finished = True
                            break
                        else:
                            raise _Reject(
                                f"unexpected control frame {item.kind!r}"
                            )
                    else:
                        if not greeted:
                            raise _Reject("report frame before HELLO")
                        # Decode off the receive-buffer view (the fields
                        # are copied out, so the batch never pins it); a
                        # malformed or CRC-failing payload raises right
                        # here, on the connection that sent it.
                        group.add(shard.protocol.decode_reports(item), len(item))
            if finished:
                self._connections_completed += 1
            elif control_plane and decoder.at_frame_boundary:
                # A PULL peer that hangs up cleanly finished its business;
                # it never FINs because it never submits.
                self._connections_completed += 1
            else:
                # EOF without FIN: the client vanished, and its uncommitted
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
            await self._send_error(writer, rejection.payload())
        except ReproError as error:
            # WireFormatError (malformed frames) and every other library
            # error a hostile stream can provoke — e.g. AggregationError on
            # report frames whose shapes don't match the domain — reject
            # this connection with a readable ERR, never crash the handler.
            self._connections_rejected += 1
            _logger.info(
                "rejecting connection %d (bad submission): %s", index, error
            )
            await self._send_error(writer, {"error": str(error)})
        except (ConnectionError, OSError):
            self._connections_dropped += 1
        finally:
            self._connections_active -= 1

    def _commit(
        self,
        shard: AggregationSession,
        group: _Group,
        token: Optional[str],
    ) -> Dict[str, Any]:
        """Commit one connection's group at ``FIN``; returns the ACK payload.

        Fold the last pending frames, merge the group into the shard,
        record its token, write ``state.npz`` on a durable server — and
        only then may the caller ACK.  Counters advance here and nowhere
        else.  A replayed token is re-ACK'd with its recorded counts and
        its group dropped; on a durable server, only once a write that
        covers the token has succeeded (the first commit's write may have
        failed after the merge).
        """
        group.fold()
        if token is not None and token in self._acked_tokens:
            if self._unsaved_commits:
                self.durable_checkpoint()
            return {**self._acked_tokens[token], "duplicate": True}
        counts = group.counts()
        if group.accumulator is not None:
            shard.merge_group(
                group.accumulator, frames=group.frames, wire_bytes=group.bytes
            )
        self._frames_total += group.frames
        self._reports_total += group.reports
        self._bytes_total += group.bytes
        if self._report_observer is not None:
            self._report_observer(group.reports)
        if token is not None:
            self._acked_tokens[token] = counts
        if self._durable_acks:
            self._unsaved_commits = True
            self.durable_checkpoint()
        if (
            self._stop_after_reports is not None
            and self._reports_total >= self._stop_after_reports
        ):
            self._stop_event.set()
        return counts

    async def _answer_stats(self, writer) -> None:
        """Answer one ``STATS`` probe with stats + the metrics snapshot."""
        with trace.span("server.stats.answer"):
            body = {
                "collector_id": self.collector_id,
                "stats": self.stats(),
                "metrics": self.metrics_snapshot().state_dict(),
            }
            writer.write(encode_control(STATS, body))
        await writer.drain()

    async def _answer_pull(self, writer, payload: Dict[str, Any]) -> None:
        """Answer one ``PULL`` with a ``STATE`` frame (stats or state)."""
        what = payload.get("what", "state")
        if what == "stats":
            body: Dict[str, Any] = {
                "collector_id": self.collector_id,
                "what": "stats",
                "stats": self.stats(),
                "metrics": self.metrics_snapshot().state_dict(),
            }
        elif what == "state":
            combined = self._merged_shards()
            blob = combined.checkpoint_bytes(
                extra={
                    "collector_id": self.collector_id,
                    "acked_tokens": self._acked_tokens,
                }
            )
            body = {
                "collector_id": self.collector_id,
                "what": "state",
                "reports": combined.num_reports,
                "acked_tokens": self._acked_tokens,
                "state_b64": base64.b64encode(blob).decode("ascii"),
            }
        else:
            raise _Reject(
                f"unknown PULL target {what!r}; expected 'stats' or 'state'"
            )
        with trace.span("topology.pull.answer") as span:
            span.annotate(what=what)
            writer.write(encode_control(STATE, body))
        await writer.drain()

    @staticmethod
    async def _send_error(writer, payload: Dict[str, Any]) -> None:
        try:
            writer.write(encode_control(ERR, payload))
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # the peer is already gone; the rejection still counted


def merge_checkpoints(
    paths: Union[PathLike, Sequence[PathLike]],
    *,
    expected_shards: Optional[int] = None,
    allow_partial: bool = False,
) -> AggregationSession:
    """Restore shard checkpoints and merge them into one session.

    The inverse of :meth:`CollectionServer.checkpoint`: hand it the
    ``shard-NN.npz`` files (any order) — or the checkpoint *directory*
    itself, which is globbed for them — and the returned session resumes
    the aggregation exactly where the collector stopped.

    A missing or partial checkpoint directory fails with a readable error
    naming the directory and the shard files found versus expected instead
    of leaking the underlying loading exception: pass
    ``expected_shards`` (the collector's shard count) to assert
    completeness, and any unreadable file is reported alongside the
    sibling checkpoints that *are* present.

    ``allow_partial=True`` is the degraded mode: an unreadable or
    integrity-broken shard is quarantined to ``*.corrupt`` (with a
    readable report next to it) and the merge continues over the healthy
    shards — at least one must survive.  The default strict mode raises
    instead, leaving every file in place.
    """
    if isinstance(paths, (str, Path)):
        directory = Path(paths)
        if not directory.is_dir():
            raise ProtocolConfigurationError(
                f"merge_checkpoints got {directory}, which is not a "
                "directory of shard checkpoints (pass the collector's "
                "checkpoint directory, or a sequence of shard-NN.npz paths)"
            )
        path_list = sorted(directory.glob("shard-*.npz"))
        if not path_list:
            found = sorted(entry.name for entry in directory.iterdir())
            raise ProtocolConfigurationError(
                f"no shard checkpoints (shard-NN.npz) in {directory}; "
                f"found: {found if found else 'an empty directory'}"
            )
    else:
        path_list = [Path(path) for path in paths]
    if not path_list:
        raise ProtocolConfigurationError(
            "merge_checkpoints needs at least one checkpoint path"
        )
    if expected_shards is not None and len(path_list) != expected_shards:
        names = sorted(path.name for path in path_list)
        where = path_list[0].parent
        raise ProtocolConfigurationError(
            f"expected {expected_shards} shard checkpoint(s) but found "
            f"{len(path_list)} in {where}: {names} — the checkpoint "
            "directory is partial (collector interrupted before every "
            "shard was written?)"
        )
    merged: Optional[AggregationSession] = None
    quarantined: List[str] = []
    for path in path_list:
        try:
            restored = AggregationSession.restore(path)
        except WireFormatError as error:
            if allow_partial:
                from ..resilience.integrity import quarantine_checkpoint

                moved, report = quarantine_checkpoint(
                    path, f"shard failed restore during merge: {error}"
                )
                _logger.error(
                    "shard checkpoint %s is corrupt (%s); quarantined to "
                    "%s (report: %s); merging the remaining shards",
                    path,
                    error,
                    moved,
                    report,
                )
                quarantined.append(path.name)
                continue
            parent = path.parent
            siblings = (
                sorted(entry.name for entry in parent.glob("*.npz"))
                if parent.is_dir()
                else []
            )
            raise WireFormatError(
                f"cannot merge shard checkpoint {path}: {error} "
                f"(checkpoint files present in {parent}: "
                f"{siblings if siblings else 'none'})"
            ) from error
        merged = restored if merged is None else merged.merge(restored)
    if merged is None:
        raise WireFormatError(
            f"every shard checkpoint was corrupt and quarantined "
            f"({quarantined}); nothing left to merge"
        )
    return merged
