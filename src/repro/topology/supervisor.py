"""The collector supervisor: spawn, health-check, recover, re-merge.

:class:`TopologySupervisor` runs N front-line :class:`CollectionServer`
processes, each durable in a checkpoint directory of its own (with a
stable ``collector_id``), watches their liveness, and — when one dies —
recovers its durable state (the ``state.npz`` snapshot with its commit log
replayed on top, :func:`~repro.server.durable.restore_durable`) so the tree
re-merges without losing a single acknowledged report:

* the collector appends each group to its commit log and syncs it
  *before* the ACK, so snapshot plus log are a superset of its
  acknowledged groups;
* :meth:`health_check` notices the death and loads that state into the
  recovered set (keyed by collector id, so a later restart supersedes
  it);
* clients that lost a connection mid-group consult the supervisor's
  :meth:`failover` oracle: a group whose token is in the recovered set is
  already counted (no replay — replaying would double-count); any other
  group is replayed to a surviving collector, which has never seen its
  token.

Given a ``port``, every collector binds it with ``SO_REUSEPORT`` — the
``repro serve --processes`` fleet.  :meth:`collect` runs
:func:`~.aggregator.walk`, the fan-in walk :func:`~repro.topology.fan_in`
runs from a manifest.

:class:`SupervisorEndpoint` exposes that oracle over the wire (the same
``PULL``/``STATE`` frames the collectors speak) so an out-of-process load
generator — ``repro load --topology`` — can fail over identically.
"""

from __future__ import annotations

import asyncio
import logging
import multiprocessing
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..core.domain import Domain
from ..core.exceptions import CollectionServiceError, ProtocolConfigurationError
from ..observability import MetricsSnapshot
from ..resilience.defaults import WATCH_INTERVAL_SECONDS
from ..server.framing import (
    ERR,
    PULL,
    STATE,
    ControlMessage,
    FrameDecoder,
    encode_control,
)
from ..server.server import DEFAULT_MAX_FRAME_BYTES, CollectionServer
from ..service.session import AggregationSession
from ..service.spec import ProtocolSpec
from .aggregator import (
    FanIn,
    FanInAggregator,
    expected_by_collector,
    read_durable,
    union_tokens,
    walk,
)
from .pull import PulledState

__all__ = ["CollectorHandle", "TopologySupervisor", "SupervisorEndpoint"]

_logger = logging.getLogger(__name__)

PathLike = Union[str, Path]

#: Each collector's metrics snapshot, written into its directory at exit.
METRICS_FILENAME = "metrics.json"


def _collector_main(
    collector_id: str,
    spec_dict: dict,
    attributes: list,
    config: dict,
    port_value,
    ready_event,
    stop_event,
    counter,
) -> None:
    """One front-line collector process: bind, serve durably, exit.

    Top-level (not a closure) so every multiprocessing start method can
    pickle it; all coordination state comes in as arguments.  The bound
    port is reported back through ``port_value`` before ``ready_event``
    fires.  ``counter`` is this collector's own count of durably committed
    reports: it starts from the restored state's total, and every group
    committed since adds its reports.
    """
    spec = ProtocolSpec.from_dict(spec_dict)
    domain = Domain(attributes)

    def observe(delta: int) -> None:
        with counter.get_lock():
            counter.value += delta

    async def main() -> None:
        server = CollectionServer(
            spec,
            domain,
            host=config["host"],
            port=config["port"],
            reuse_port=config["reuse_port"],
            shards=config["shards"],
            max_frame_bytes=config["max_frame_bytes"],
            checkpoint_dir=config["checkpoint_dir"],
            collector_id=collector_id,
            report_observer=observe,
        )
        with counter.get_lock():
            counter.value = server.num_reports  # restored at construction
        await server.start()
        port_value.value = server.port
        ready_event.set()

        async def watch() -> None:
            while not stop_event.is_set():
                await asyncio.sleep(WATCH_INTERVAL_SECONDS)
            server.request_stop()

        watcher = asyncio.create_task(watch())
        try:
            await server.serve_until_stopped()
        finally:
            watcher.cancel()
            try:
                await watcher
            except asyncio.CancelledError:
                pass
        # Metrics ride the state's channel: a file the parent merges.
        metrics_path = Path(config["checkpoint_dir"]) / METRICS_FILENAME
        metrics_path.write_text(server.metrics_snapshot().to_json())

    asyncio.run(main())


@dataclass
class CollectorHandle:
    """Supervisor-side bookkeeping for one front-line collector."""

    index: int
    collector_id: str
    checkpoint_dir: Path
    process: Any = None
    stop_event: Any = None
    port: Optional[int] = None
    status: str = "new"  # new -> live -> dead (or stopped); restart -> live
    generation: int = 0
    #: Shared count of the collector's durably committed reports.
    reports: Any = None

    @property
    def address(self) -> Optional[Tuple[str, int]]:
        return None if self.port is None else (self.host, self.port)

    host: str = "127.0.0.1"

    def describe(self) -> Dict[str, Any]:
        return {
            "collector_id": self.collector_id,
            "host": self.host,
            "port": self.port,
            "pid": self.process.pid if self.process is not None else None,
            "status": self.status,
            "generation": self.generation,
            "checkpoint_dir": str(self.checkpoint_dir),
        }


class TopologySupervisor:
    """Spawn and supervise N durable collectors; recover the dead ones.

    Parameters
    ----------
    spec, domain:
        The collection contract, as everywhere else.
    collectors:
        How many front-line collector processes to run.
    base_dir:
        Every collector checkpoints under ``base_dir/<collector_id>/``.
    port:
        ``None`` (the default) gives every collector a port of its own.
        An int makes every collector bind that one port with
        ``SO_REUSEPORT``; ``0`` reserves a free one.
    shards:
        Shard sessions *inside* each collector.
    max_frame_bytes:
        Per-frame payload cap of every collector.
    """

    def __init__(
        self,
        spec,
        domain: Domain,
        *,
        collectors: int = 3,
        base_dir: PathLike,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        shards: int = 1,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        start_timeout: float = 30.0,
    ):
        if collectors < 1:
            raise ProtocolConfigurationError(
                f"collector count must be >= 1, got {collectors}"
            )
        if port is not None and not hasattr(socket, "SO_REUSEPORT"):
            raise ProtocolConfigurationError(
                "collectors sharing one port need SO_REUSEPORT, which this "
                "platform does not support"
            )
        if not isinstance(spec, ProtocolSpec):
            spec = ProtocolSpec.from_protocol(spec)
        if not isinstance(domain, Domain):
            raise ProtocolConfigurationError(
                f"a TopologySupervisor needs a Domain, "
                f"got {type(domain).__name__}"
            )
        self._spec = spec
        self._domain = domain
        self._host = host
        self._shared_port = None if port is None else int(port)
        self._placeholder: Optional[socket.socket] = None
        self._shards = int(shards)
        self._max_frame_bytes = int(max_frame_bytes)
        self._start_timeout = float(start_timeout)
        self._base_dir = Path(base_dir)
        self._context = multiprocessing.get_context()
        self._handles = [
            CollectorHandle(
                index=index,
                collector_id=f"c{index}",
                checkpoint_dir=self._base_dir / f"c{index}",
                host=host,
                reports=self._context.Value("q", 0),
            )
            for index in range(collectors)
        ]
        self._recovered: Dict[str, PulledState] = {}
        # Collectors whose durable state could NOT be recovered, with the
        # human-readable reason — "no durable state" or "quarantined: ..."
        # — feeding straight into finalize's CoverageReport.
        self._lost: Dict[str, str] = {}
        # health_check runs in worker threads on the async paths (the
        # checkpoint restore is synchronous disk I/O); the lock keeps two
        # concurrent checks from recovering the same collector twice.
        self._health_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # introspection

    @property
    def spec(self) -> ProtocolSpec:
        return self._spec

    @property
    def domain(self) -> Domain:
        return self._domain

    @property
    def handles(self) -> Tuple[CollectorHandle, ...]:
        return tuple(self._handles)

    @property
    def addresses(self) -> Tuple[Tuple[str, int], ...]:
        """Every collector's address (fixed across restarts)."""
        return tuple(handle.address for handle in self._handles)

    @property
    def dead_addresses(self) -> Tuple[Tuple[str, int], ...]:
        return tuple(
            handle.address
            for handle in self._handles
            if handle.status == "dead"
        )

    @property
    def num_reports(self) -> int:
        """Reports every collector durably committed so far, counted once.

        The sum of one count per collector: a live collector's count is
        its restored total plus every group it committed since, and a dead
        one's is the ``num_reports`` of the state recovered from its disk,
        so a group made durable just before a crash is counted too."""
        total = 0
        for handle in self._handles:
            with handle.reports.get_lock():
                total += handle.reports.value
        return int(total)

    def describe(self) -> List[Dict[str, Any]]:
        return [handle.describe() for handle in self._handles]

    def is_alive(self, index: int) -> bool:
        handle = self._handles[index]
        return handle.process is not None and handle.process.is_alive()

    # ------------------------------------------------------------------ #
    # lifecycle

    def start(self) -> "TopologySupervisor":
        """Spawn every collector; returns once all accept connections."""
        if any(handle.status != "new" for handle in self._handles):
            raise ProtocolConfigurationError(
                "the supervisor is already started"
            )
        port = self._shared_port
        if port == 0:
            # Reserve a port with a bound, not listening, socket in the
            # SO_REUSEPORT group until every collector has joined it.
            self._placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            self._placeholder.bind((self._host, 0))
            port = self._placeholder.getsockname()[1]
        for handle in self._handles:
            handle.port = port
            self._spawn(handle)
        self._await_ready(self._handles)
        self._release_placeholder()
        return self

    def _release_placeholder(self) -> None:
        if self._placeholder is not None:
            self._placeholder.close()
            self._placeholder = None

    def _spawn(self, handle: CollectorHandle) -> None:
        handle.stop_event = self._context.Event()
        handle._ready_event = self._context.Event()
        handle._port_value = self._context.Value("i", handle.port or 0)
        config = {
            "host": self._host,
            # A restarted collector rebinds its original port so its
            # address — what routers and manifests carry — stays stable.
            "port": handle.port or 0,
            "reuse_port": self._shared_port is not None,
            "shards": self._shards,
            "max_frame_bytes": self._max_frame_bytes,
            "checkpoint_dir": str(handle.checkpoint_dir),
        }
        handle.process = self._context.Process(
            target=_collector_main,
            args=(
                handle.collector_id,
                self._spec.to_dict(),
                list(self._domain.attributes),
                config,
                handle._port_value,
                handle._ready_event,
                handle.stop_event,
                handle.reports,
            ),
            daemon=True,
        )
        handle.process.start()
        handle.generation += 1

    def _await_ready(self, handles) -> None:
        for handle in handles:
            if not handle._ready_event.wait(self._start_timeout):
                self.shutdown()
                raise CollectionServiceError(
                    f"collector {handle.collector_id} did not come up within "
                    f"{self._start_timeout:.1f}s"
                )
            handle.port = int(handle._port_value.value)
            handle.status = "live"
            _logger.info(
                "collector %s (pid %d) serving on %s:%d",
                handle.collector_id,
                handle.process.pid,
                handle.host,
                handle.port,
            )

    def kill(self, index: int) -> CollectorHandle:
        """SIGKILL one collector (fault injection); health checks will
        notice the death and recover its checkpoint."""
        handle = self._handles[index]
        if handle.process is None:
            raise ProtocolConfigurationError(
                f"collector {handle.collector_id} was never started"
            )
        handle.process.kill()
        handle.process.join(timeout=5.0)
        return handle

    def restart(self, index: int) -> CollectorHandle:
        """Relaunch a dead collector on its original port and directory.

        The child resumes from its own snapshot and commit log (the
        durable-ACK restore path), so its live state supersedes — and
        therefore replaces — the supervisor's recovered snapshot for it.
        """
        handle = self._handles[index]
        if handle.process is not None and handle.process.is_alive():
            raise ProtocolConfigurationError(
                f"collector {handle.collector_id} is still alive"
            )
        self._spawn(handle)
        self._await_ready([handle])
        # The restarted collector now owns every report its checkpoint
        # held; keeping the recovered copy would double-count on merge.
        self._recovered.pop(handle.collector_id, None)
        self._lost.pop(handle.collector_id, None)
        return handle

    def shutdown(self, timeout: float = 15.0) -> None:
        """Stop every live collector and reap every process."""
        for handle in self._handles:
            if handle.stop_event is not None:
                handle.stop_event.set()
        deadline = time.monotonic() + timeout
        for handle in self._handles:
            process = handle.process
            if process is None:
                continue
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
            if handle.status == "live":
                handle.status = "stopped"
        self._release_placeholder()

    # ------------------------------------------------------------------ #
    # failure detection and recovery

    def health_check(self) -> List[CollectorHandle]:
        """Mark collectors whose process died; recover their checkpoints.

        Returns the newly-dead handles.  Recovery is ordered *before* the
        handle is declared dead, so any client that observes ``dead`` in a
        :meth:`failover` verdict can rely on the recovered token set being
        complete.
        """
        newly_dead = []
        with self._health_lock:
            for handle in self._handles:
                if not self._has_died(handle):
                    continue
                self._recover(handle)
                handle.status = "dead"
                newly_dead.append(handle)
                _logger.warning(
                    "collector %s (%s:%s) died; recovered %d report(s) from "
                    "its last durable checkpoint",
                    handle.collector_id,
                    handle.host,
                    handle.port,
                    self._recovered[handle.collector_id].num_reports,
                )
        return newly_dead

    async def health_check_async(self) -> List[CollectorHandle]:
        """:meth:`health_check` off the event loop, when it has work.

        Whether a live collector's process has died is one ``waitpid``
        poll, cheap enough for the loop, so a healthy tree costs no thread
        hop.  Recovering a dead collector restores its snapshot and replays
        its commit log with synchronous file I/O and hashing, so only then
        do the async paths (the failover oracle, the wire endpoint,
        :meth:`collect`) run the check in a worker thread — a client
        mid-failover never waits behind another client's disk read.  A
        handle is still ``live`` while another thread recovers it, so this
        path too waits on that recovery before it can see ``dead``.
        """
        if not any(self._has_died(handle) for handle in self._handles):
            return []
        return await asyncio.to_thread(self.health_check)

    @staticmethod
    def _has_died(handle: CollectorHandle) -> bool:
        """A handle still marked live whose process is gone."""
        return handle.status == "live" and not (
            handle.process is not None and handle.process.is_alive()
        )

    def _recover(self, handle: CollectorHandle) -> None:
        session, reason = read_durable(handle.checkpoint_dir)
        if reason is not None:
            # A state that failed restore is quarantined, and a collector
            # that died before its startup snapshot never ACK'd anything:
            # recover as empty.  The empty token set makes clients replay
            # every group a quarantined state held, so the loss is repaired
            # wherever the clients are still alive to replay.
            _logger.error(
                "collector %s: %s; recovering as empty",
                handle.collector_id,
                reason,
            )
            self._lost[handle.collector_id] = reason
            session = AggregationSession(self._spec, self._domain)
        self._recovered[handle.collector_id] = PulledState(
            collector_id=handle.collector_id,
            session=session,
            acked_tokens=session.checkpoint_extra.get("acked_tokens", {}),
        )
        # The disk, not the observer calls that reached the counter, is
        # what a fan-in merges: a SIGKILL between a group's sync and its
        # observer call must not leave the count short of it.
        with handle.reports.get_lock():
            handle.reports.value = session.num_reports

    def recovered_states(self) -> Dict[str, PulledState]:
        """The recovered snapshots of currently-dead collectors, by id."""
        return dict(self._recovered)

    def recovered_tokens(self) -> Dict[str, Dict[str, int]]:
        """Acknowledged-group tokens across every recovered collector."""
        return union_tokens(self._recovered.values())

    async def failover(self, address) -> Dict[str, Any]:
        """The failover oracle clients consult after a broken connection.

        Returns ``{"dead": bool, "acked_tokens": {...}}``.  ``dead`` is
        True only once the collector at ``address`` has been declared dead
        *and its checkpoint recovered* — at that point ``acked_tokens`` is
        the complete set of groups that must NOT be replayed.  A client
        seeing ``dead: False`` should retry the same address (transient
        failure, or the death simply has not been detected yet) and ask
        again.
        """
        address = (str(address[0]), int(address[1]))
        await self.health_check_async()
        dead = any(
            handle.address == address and handle.status == "dead"
            for handle in self._handles
        )
        verdict: Dict[str, Any] = {"dead": dead}
        if dead:
            verdict["acked_tokens"] = self.recovered_tokens()
        return verdict

    # ------------------------------------------------------------------ #
    # fan-in

    def lost_collectors(self) -> Dict[str, str]:
        """Dead collectors whose durable state could not be recovered
        (recovered-as-empty or quarantined), with the readable reason."""
        return dict(self._lost)

    def metrics_snapshot(self) -> MetricsSnapshot:
        """Every collector's exit-time metrics, merged (a collector still
        running or killed hard contributes nothing)."""
        merged = MetricsSnapshot.empty()
        for handle in self._handles:
            path = handle.checkpoint_dir / METRICS_FILENAME
            try:
                merged = merged.merge(MetricsSnapshot.from_json(path.read_text()))
            except (OSError, ValueError):
                continue
        return merged

    async def _walk(self, *, partial: bool, timeout: float, retry) -> FanIn:
        await self.health_check_async()
        live = [handle for handle in self._handles if handle.status == "live"]
        if live and self._shared_port is not None:
            raise CollectionServiceError(
                f"{len(live)} collector(s) share port {self._shared_port} "
                f"and cannot be pulled apart; collect this fleet after "
                f"shutdown()"
            )
        return await walk(
            FanInAggregator(self._spec, self._domain),
            pull=[handle.describe() for handle in live],
            read=[
                handle.describe()
                for handle in self._handles
                if handle.status == "stopped"
            ],
            recovered=self._recovered,
            lost=self._lost,
            fallback=False,
            partial=partial,
            timeout=timeout,
            retry=retry,
        )

    async def collect(
        self, *, timeout: float = 15.0, retry=None
    ) -> FanInAggregator:
        """Every collector's state, each counted once, before or after
        :meth:`shutdown`.  Raises when a live collector does not answer
        or a stopped one's state is gone; ``retry`` is an optional
        :class:`~repro.resilience.RetryPolicy` for the (idempotent) pulls.
        """
        gathered = await self._walk(partial=False, timeout=timeout, retry=retry)
        return gathered.aggregator

    async def finalize(
        self,
        *,
        allow_partial: bool = False,
        expected_by_address: Optional[Dict[str, Any]] = None,
        timeout: float = 15.0,
        retry=None,
    ):
        """Collect the whole tree and finalize with coverage accounting.

        ``expected_by_address`` is as for
        :func:`~.aggregator.expected_by_collector`.  Strict by default:
        any collector whose reports are known (or expected) to be missing
        raises :class:`~repro.core.exceptions.PartialCoverageError`
        carrying the :class:`~repro.resilience.CoverageReport`;
        ``allow_partial=True`` returns the estimator anyway with the
        report in its metadata.
        """
        gathered = await self._walk(partial=True, timeout=timeout, retry=retry)
        coverage = gathered.aggregator.coverage_report(
            expected_by_collector(self.describe(), expected_by_address or {}),
            gathered.lost,
            gathered.statuses,
        )
        return gathered.aggregator.finalize(
            allow_partial=allow_partial, coverage=coverage
        )


class SupervisorEndpoint:
    """The supervisor's failover oracle on a socket (PULL/STATE frames).

    Verbs (the ``what`` field of a ``PULL``):

    * ``recovered`` — ``STATE {dead: ["host:port", ...], acked_tokens}``;
      runs a health check first, so polling clients converge on the
      complete recovered token set.
    * ``stats`` — a cheap supervisor-level summary (per-collector status).
    """

    def __init__(
        self,
        supervisor: TopologySupervisor,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self._supervisor = supervisor
        self._host = host
        self._requested_port = int(port)
        self._server: Optional[asyncio.AbstractServer] = None
        self._port: Optional[int] = None

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> Optional[int]:
        return self._port

    async def start(self) -> "SupervisorEndpoint":
        if self._server is not None:
            raise ProtocolConfigurationError("the endpoint is already started")
        self._server = await asyncio.start_server(
            self._on_client, self._host, self._requested_port
        )
        self._port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    async def _on_client(self, reader, writer) -> None:
        try:
            decoder = FrameDecoder()
            while True:
                chunk = await reader.read(1 << 16)
                if not chunk:
                    return
                decoder.absorb(chunk)
                for item in decoder.frames():
                    if (
                        not isinstance(item, ControlMessage)
                        or item.kind != PULL
                    ):
                        writer.write(
                            encode_control(
                                ERR,
                                {"error": "the supervisor only answers PULL"},
                            )
                        )
                        await writer.drain()
                        return
                    writer.write(await self._answer(item.payload))
                    await writer.drain()
        except (ConnectionError, OSError):
            pass
        except Exception:  # pragma: no cover - last-resort guard
            _logger.exception("supervisor endpoint handler crashed")
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _answer(self, payload: Dict[str, Any]) -> bytes:
        what = payload.get("what", "recovered")
        if what == "recovered":
            await self._supervisor.health_check_async()
            return encode_control(
                STATE,
                {
                    "what": "recovered",
                    "dead": [
                        f"{host}:{port}"
                        for host, port in self._supervisor.dead_addresses
                    ],
                    "acked_tokens": self._supervisor.recovered_tokens(),
                },
            )
        if what == "stats":
            await self._supervisor.health_check_async()
            return encode_control(
                STATE,
                {
                    "what": "stats",
                    "collectors": self._supervisor.describe(),
                },
            )
        return encode_control(
            ERR,
            {
                "error": (
                    f"unknown PULL target {what!r}; the supervisor answers "
                    "'recovered' and 'stats'"
                )
            },
        )
