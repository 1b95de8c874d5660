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
from .handshake import check_hello, spec_hash

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "DEFAULT_BATCH_MAX_USERS",
    "DEFAULT_BATCH_WINDOW_SECONDS",
    "DURABLE_STATE_FILENAME",
    "CollectionServer",
    "install_uvloop",
    "merge_checkpoints",
]

_logger = logging.getLogger(__name__)

#: Default per-frame cap for network submissions (64 MiB).  Far above any
#: realistic report batch, far below the codec's 1 GiB hard limit — a
#: connection cannot make one shard buffer a gigabyte on a forged header.
DEFAULT_MAX_FRAME_BYTES = 64 << 20

#: Default micro-batch flush threshold: pending user reports per shard.
DEFAULT_BATCH_MAX_USERS = 8192

#: Default micro-batch flush ladder timeout (seconds).
DEFAULT_BATCH_WINDOW_SECONDS = 0.005

#: Filename of the single-file transactional checkpoint written by a
#: collector running in ``durable_acks`` mode (the whole merged state plus
#: the acknowledged-group token map, refreshed atomically before each ACK).
DURABLE_STATE_FILENAME = "state.npz"

PathLike = Union[str, Path]


def install_uvloop(required: bool = False) -> bool:
    """Install the uvloop event-loop policy when the package is available.

    The collection server is pure-asyncio, so ``uvloop`` is a drop-in
    accelerator for its socket layer.  It is an optional dependency
    (``pip install .[fast]``): when absent this logs a warning and leaves
    the default policy in place — unless ``required``, which raises
    :class:`ProtocolConfigurationError` instead.
    """
    try:
        import uvloop
    except ImportError:
        if required:
            raise ProtocolConfigurationError(
                "uvloop is not installed; pip install '.[fast]' to enable it"
            ) from None
        _logger.warning(
            "uvloop is not installed; staying on the default asyncio "
            "event loop (pip install '.[fast]' to enable it)"
        )
        return False
    uvloop.install()
    _logger.info("uvloop event-loop policy installed")
    return True


class _ShardBatcher:
    """Per-shard micro-batching queue for decoded report batches.

    Connection handlers decode frames off the wire and :meth:`enqueue`
    them here; the batcher coalesces frames from every connection mapped
    to its shard and folds them into the shard session as *one*
    accumulator update per flush
    (:meth:`AggregationSession.submit_decoded`), amortising the per-update
    kernel dispatch across connections.  Exactness is inherited from the
    concatenation algebra — see
    :func:`~repro.protocols.wire.concat_report_batches`.

    Flush triggers: pending users reaching ``max_users``, the
    ``window_seconds`` ladder timer, a connection's ``FIN`` (the handler
    flushes synchronously so its ACK covers its reports), and the server's
    stop/checkpoint/finalize paths.

    Everything runs on the event-loop thread, so there are no locks, and
    every flush is synchronous: by the time :meth:`flush` returns, each
    pending frame is either in the session or its connection's
    ``on_error`` sink has been called.  When a coalesced update fails, the
    batch is replayed frame by frame so the error lands only on the sinks
    of the frames that caused it (``on_discard`` then reverses the
    handler's optimistic counter increments for those frames).  Per-frame
    sinks instead of per-frame futures keep the happy path free of event
    loop bookkeeping — at ingest rates the future churn is measurable.
    """

    def __init__(
        self,
        session: AggregationSession,
        *,
        max_users: int,
        window_seconds: float,
        on_discard: Callable[[int, int, int], None],
    ):
        self._session = session
        self._max_users = max_users
        self._window = window_seconds
        self._on_discard = on_discard
        self._pending: List[tuple] = []  # (decoded batch, wire bytes, sink)
        self._pending_users = 0
        self._timer: Optional[asyncio.TimerHandle] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    @property
    def pending_frames(self) -> int:
        return len(self._pending)

    def enqueue(
        self,
        decoded,
        nbytes: int,
        on_error: Callable[[BaseException], None],
    ) -> None:
        """Queue one decoded batch.

        ``on_error`` is called — synchronously, during whichever flush
        drains this frame — if and only if the batch is rejected.
        """
        self._pending.append((decoded, nbytes, on_error))
        self._pending_users += int(decoded.num_users)
        if self._pending_users >= self._max_users:
            self.flush()
        elif self._timer is None:
            if self._loop is None:
                self._loop = asyncio.get_running_loop()
            self._timer = self._loop.call_later(self._window, self._on_timer)

    def _on_timer(self) -> None:
        self._timer = None
        self.flush()

    def flush(self) -> None:
        """Fold everything pending into the shard session, synchronously."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        pending, self._pending = self._pending, []
        users, self._pending_users = self._pending_users, 0
        if not pending:
            return
        try:
            with trace.span("ingest.flush") as span:
                span.annotate(frames=len(pending), users=users)
                self._session.submit_decoded(
                    [decoded for decoded, _, _ in pending],
                    wire_bytes=sum(nbytes for _, nbytes, _ in pending),
                )
        except ReproError:
            # One bad batch poisons a coalesced update.  Replay frame by
            # frame so the error lands on the connection that sent it and
            # everyone else's reports still count.
            for decoded, nbytes, on_error in pending:
                try:
                    self._session.submit_decoded([decoded], wire_bytes=nbytes)
                except ReproError as error:
                    self._on_discard(1, int(decoded.num_users), nbytes)
                    on_error(error)


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
    batch_max_users, batch_window_seconds:
        The ingest micro-batching knobs: each shard coalesces decoded
        report frames (across connections) and folds them into its
        session as one accumulator update per flush.  A flush fires when
        the shard's pending user reports reach ``batch_max_users`` or
        ``batch_window_seconds`` after the first pending frame, whichever
        comes first (and always on FIN/stop/checkpoint).  Pure
        performance knobs: the estimates are grouping-invariant.
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
        Optional callable invoked with signed user-report deltas as they
        are counted (positive on ingest, negative when a deferred flush
        rejects a frame) — the hook the multi-process tier uses to
        maintain a shared report counter.
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
        Transactional ingest for the topology tier.  Report frames are
        held per connection and folded into the shard only at ``FIN`` —
        then the whole merged state (plus the acknowledged-group token
        map) is checkpointed atomically to
        ``checkpoint_dir/state.npz`` *before* the ``ACK`` goes out.  The
        last durable checkpoint therefore always contains every
        acknowledged group, which is what lets a supervisor re-merge a
        dead collector without losing ACK'd reports.  Clients may carry a
        ``token`` in their ``HELLO``; a replayed token is re-ACK'd with
        its recorded counts instead of double-folded, making retries
        idempotent.  Requires ``checkpoint_dir``; an existing
        ``state.npz`` there is restored on construction (crash restart).
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
        batch_max_users: int = DEFAULT_BATCH_MAX_USERS,
        batch_window_seconds: float = DEFAULT_BATCH_WINDOW_SECONDS,
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
        if batch_max_users < 1:
            raise ProtocolConfigurationError(
                f"batch_max_users must be >= 1, got {batch_max_users}"
            )
        if batch_window_seconds <= 0:
            raise ProtocolConfigurationError(
                f"batch_window_seconds must be > 0, got {batch_window_seconds}"
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
        self._batchers = [
            _ShardBatcher(
                session,
                max_users=int(batch_max_users),
                window_seconds=float(batch_window_seconds),
                on_discard=self._discount,
            )
            for session in self._sessions
        ]
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
        self._frames_discarded = 0
        self._reports_discarded = 0
        self._bytes_discarded = 0
        self._checkpoints_written = 0

        # The operational counters above stay plain ints — they steer
        # behaviour (stop_after_reports, ACK payloads) and must count
        # identically with metrics on or off.  The registry mirrors them as
        # monotonic counters (gross ingested + gross discarded, never the
        # net) via _sync_registry, which runs on every stats/snapshot read.
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
                "Report frames accepted off the wire (gross, pre-discount).",
            ),
            "reports": counter(
                "repro_server_reports_total",
                "User reports accepted off the wire (gross, pre-discount).",
            ),
            "bytes": counter(
                "repro_server_bytes_total",
                "Report payload bytes accepted off the wire (gross).",
            ),
            "frames_discarded": counter(
                "repro_server_frames_discarded_total",
                "Frames reversed after a deferred flush rejection.",
            ),
            "reports_discarded": counter(
                "repro_server_reports_discarded_total",
                "User reports reversed after a deferred flush rejection.",
            ),
            "bytes_discarded": counter(
                "repro_server_bytes_discarded_total",
                "Payload bytes reversed after a deferred flush rejection.",
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
        if self._durable_acks:
            self._resume_durable_state()

    def _resume_durable_state(self) -> None:
        """Fold a previous ``state.npz`` back in (crash-restart path).

        A ``state.npz`` that fails restore — zero bytes, torn zip, or an
        integrity-digest mismatch — is quarantined to ``*.corrupt`` with a
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

        The gross quantities (ingested, discarded) only ever grow, so each
        sync advances the registry counters by the delta since the last
        sync — the exported series stay monotonic even though the net
        operational counters can step backwards on a discount.
        """
        from ..observability.metrics import metrics_enabled

        if not metrics_enabled():
            return
        values = {
            "frames": self._frames_total + self._frames_discarded,
            "reports": self._reports_total + self._reports_discarded,
            "bytes": self._bytes_total + self._bytes_discarded,
            "frames_discarded": self._frames_discarded,
            "reports_discarded": self._reports_discarded,
            "bytes_discarded": self._bytes_discarded,
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
        self._flush_all()
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

    def _flush_all(self) -> None:
        """Flush every shard's pending micro-batch into its session."""
        for batcher in self._batchers:
            batcher.flush()

    def _discount(self, frames: int, users: int, nbytes: int) -> None:
        """Reverse optimistic counter increments for flush-rejected frames."""
        self._frames_total -= frames
        self._reports_total -= users
        self._bytes_total -= nbytes
        self._frames_discarded += frames
        self._reports_discarded += users
        self._bytes_discarded += nbytes
        if self._report_observer is not None:
            self._report_observer(-users)

    def combined_session(self) -> AggregationSession:
        """A fresh session holding every shard's state, shards untouched."""
        self._flush_all()
        combined = AggregationSession(self._spec, self._domain)
        for session in self._sessions:
            combined.merge(session)
        return combined

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
            self._flush_all()
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
            combined = self.combined_session()
            path = combined.checkpoint(
                self._checkpoint_dir / DURABLE_STATE_FILENAME,
                extra={
                    "collector_id": self.collector_id,
                    "acked_tokens": self._acked_tokens,
                },
            )
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
        batcher = self._batchers[shard_index]
        # Report frames are decoded here but folded in by the shard
        # batcher, possibly while this handler is blocked reading the next
        # chunk.  Every flush is synchronous, so a flush failure of one of
        # OUR frames calls this sink in the flushing context: it sends the
        # ERR and closes the transport right there — the blocked read then
        # wakes with EOF — and the read loop stays a plain
        # ``await reader.read()`` with no per-chunk waiter machinery.
        flush_error: List[BaseException] = []

        def _on_flush_error(error: BaseException) -> None:
            if flush_error:
                return  # already rejected; only the first error reports
            flush_error.append(error)
            self._connections_rejected += 1
            _logger.info(
                "rejecting connection %d (bad submission): %s", index, error
            )
            try:
                writer.write(encode_control(ERR, {"error": str(error)}))
                writer.close()
            except (ConnectionError, OSError, RuntimeError):
                pass  # the peer is already gone; the rejection still counted

        greeted = False
        finished = False
        control_plane = False
        token: Optional[str] = None
        # durable_acks mode: decoded frames wait here and fold only at FIN
        # (one transactional group per connection); each entry is
        # ``(decoded batch, users, nbytes)``.
        pending: List[tuple] = []
        frames = reports = received = 0
        try:
            decoder = FrameDecoder(max_frame_bytes=self._max_frame_bytes)
            while not finished:
                chunk = await reader.read(self._read_chunk_bytes)
                if flush_error:
                    # The flush callback already sent the ERR, counted the
                    # rejection and closed the transport.
                    return
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
                            raw_token = item.payload.get("token")
                            token = (
                                str(raw_token)
                                if raw_token is not None
                                else None
                            )
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
                            if self._durable_acks:
                                # Transactional group commit: fold, make the
                                # state durable, only then ACK.
                                ack_payload = self._fold_durable(
                                    shard, pending, token
                                )
                            else:
                                # Flush synchronously so every report this
                                # connection sent is in the shard (or
                                # rejected) before the ACK goes out.  A
                                # rejection has already sent the ERR through
                                # the error sink by the time flush()
                                # returns.
                                batcher.flush()
                                if flush_error:
                                    return
                                ack_payload = {
                                    "frames": frames,
                                    "reports": reports,
                                    "bytes": received,
                                }
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
                        decoded = shard.protocol.decode_reports(item)
                        users = int(decoded.num_users)
                        nbytes = len(item)
                        if self._durable_acks:
                            pending.append((decoded, users, nbytes))
                        else:
                            batcher.enqueue(decoded, nbytes, _on_flush_error)
                        # Counters advance optimistically; _discount
                        # reverses them if the deferred flush rejects the
                        # frame (such a connection gets ERR, not ACK, so
                        # its per-connection counts are never reported).
                        frames += 1
                        reports += users
                        received += nbytes
                        self._frames_total += 1
                        self._reports_total += users
                        self._bytes_total += nbytes
                        if self._report_observer is not None:
                            self._report_observer(users)
                        if (
                            self._stop_after_reports is not None
                            and self._reports_total >= self._stop_after_reports
                        ):
                            self._stop_event.set()
            if finished:
                self._connections_completed += 1
            elif control_plane and decoder.at_frame_boundary:
                # A PULL peer that hangs up cleanly finished its business;
                # it never FINs because it never submits.
                self._connections_completed += 1
            else:
                # EOF without FIN: the client vanished.  Whatever complete
                # frames it sent were already aggregated; a trailing partial
                # frame is simply discarded with the connection.
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
            if flush_error:
                # The transport died because the flush callback closed it;
                # that path already counted the rejection.
                pass
            else:
                self._connections_dropped += 1
        finally:
            if pending:
                # Unfolded durable frames die with the connection: reverse
                # the optimistic counters so nothing unacknowledged counts.
                self._discount(
                    len(pending),
                    sum(users for _, users, _ in pending),
                    sum(nbytes for _, _, nbytes in pending),
                )
                pending.clear()
            self._connections_active -= 1

    def _fold_durable(
        self,
        shard: AggregationSession,
        pending: List[tuple],
        token: Optional[str],
    ) -> Dict[str, Any]:
        """Commit one connection's group: fold → checkpoint → ACK payload.

        The ordering is the durability argument: the token is recorded
        before the checkpoint is attempted and the checkpoint is written
        before the caller ACKs, so the last ``state.npz`` on disk always
        holds a superset of the acknowledged groups, and a replayed token
        is re-ACK'd with its recorded counts instead of double-folded.
        """
        group_frames = len(pending)
        group_users = sum(users for _, users, _ in pending)
        group_bytes = sum(nbytes for _, _, nbytes in pending)
        if token is not None and token in self._acked_tokens:
            # Replay of an already-committed group (client retry after a
            # lost ACK or a restart): drop the duplicate fold, reverse this
            # connection's optimistic counters, answer idempotently.
            del pending[:]
            self._discount(group_frames, group_users, group_bytes)
            recorded = dict(self._acked_tokens[token])
            recorded["duplicate"] = True
            return recorded
        batches = [decoded for decoded, _, _ in pending]
        del pending[:]
        try:
            shard.submit_decoded(batches, wire_bytes=group_bytes)
        except ReproError as error:
            self._discount(group_frames, group_users, group_bytes)
            raise _Reject(str(error)) from error
        payload = {
            "frames": group_frames,
            "reports": group_users,
            "bytes": group_bytes,
        }
        if token is not None:
            self._acked_tokens[token] = dict(payload)
        self.durable_checkpoint()
        return payload

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
            combined = self.combined_session()
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
    of leaking the underlying npz loading exception: pass
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
