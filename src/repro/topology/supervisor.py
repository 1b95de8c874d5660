"""The collector supervisor: spawn, health-check, recover, re-merge.

:class:`TopologySupervisor` runs N front-line :class:`CollectionServer`
processes in ``durable_acks`` mode (one directory and one stable
``collector_id`` each), watches their liveness, and — when one dies —
recovers its last atomic ``state.npz`` checkpoint so the tree re-merges
without losing a single acknowledged report:

* the collector checkpoints *before* every ACK, so its last ``state.npz``
  is a superset of its acknowledged groups;
* :meth:`health_check` notices the death and loads that checkpoint into
  the recovered set (keyed by collector id, so a later restart supersedes
  it);
* clients that lost a connection mid-group consult the supervisor's
  :meth:`failover` oracle: a group whose token is in the recovered set is
  already counted (no replay — replaying would double-count); any other
  group is replayed to a surviving collector, which has never seen its
  token.

:class:`SupervisorEndpoint` exposes that oracle over the wire (the same
``PULL``/``STATE`` frames the collectors speak) so an out-of-process load
generator — ``repro load --topology`` — can fail over identically.
"""

from __future__ import annotations

import asyncio
import logging
import multiprocessing
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..core.domain import Domain
from ..core.exceptions import (
    CollectionServiceError,
    ProtocolConfigurationError,
    WireFormatError,
)
from ..resilience.coverage import (
    STATUS_LOST,
    STATUS_OK,
    STATUS_QUARANTINED,
    STATUS_RECOVERED,
    CollectorCoverage,
    CoverageReport,
)
from ..resilience.defaults import WATCH_INTERVAL_SECONDS
from ..resilience.integrity import quarantine_checkpoint
from ..server.framing import (
    ERR,
    PULL,
    STATE,
    ControlMessage,
    FrameDecoder,
    encode_control,
)
from ..server.server import DURABLE_STATE_FILENAME, CollectionServer
from ..service.session import AggregationSession
from ..service.spec import ProtocolSpec
from .aggregator import FanInAggregator
from .pull import PulledState

__all__ = ["CollectorHandle", "TopologySupervisor", "SupervisorEndpoint"]

_logger = logging.getLogger(__name__)

PathLike = Union[str, Path]


def _collector_main(
    collector_id: str,
    spec_dict: dict,
    attributes: list,
    config: dict,
    port_value,
    ready_event,
    stop_event,
) -> None:
    """One front-line collector process: bind, serve durably, exit.

    Top-level (not a closure) so every multiprocessing start method can
    pickle it; all coordination state comes in as arguments.  The bound
    port is reported back through ``port_value`` before ``ready_event``
    fires.
    """
    spec = ProtocolSpec.from_dict(spec_dict)
    domain = Domain(attributes)

    async def main() -> None:
        server = CollectionServer(
            spec,
            domain,
            host=config["host"],
            port=config["port"],
            shards=config["shards"],
            checkpoint_dir=config["checkpoint_dir"],
            checkpoint_interval=config.get("checkpoint_interval"),
            durable_acks=True,
            collector_id=collector_id,
        )
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
    shards:
        Shard sessions *inside* each collector.
    checkpoint_interval:
        Periodic ``state.npz`` refresh inside each collector, on top of
        the per-ACK transactional writes.
    """

    def __init__(
        self,
        spec,
        domain: Domain,
        *,
        collectors: int = 3,
        base_dir: PathLike,
        host: str = "127.0.0.1",
        shards: int = 1,
        checkpoint_interval: Optional[float] = None,
        start_timeout: float = 30.0,
    ):
        if collectors < 1:
            raise ProtocolConfigurationError(
                f"collector count must be >= 1, got {collectors}"
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
        self._shards = int(shards)
        self._checkpoint_interval = checkpoint_interval
        self._start_timeout = float(start_timeout)
        self._base_dir = Path(base_dir)
        self._context = multiprocessing.get_context()
        self._handles = [
            CollectorHandle(
                index=index,
                collector_id=f"c{index}",
                checkpoint_dir=self._base_dir / f"c{index}",
                host=host,
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
        for handle in self._handles:
            self._spawn(handle)
        self._await_ready(self._handles)
        return self

    def _spawn(self, handle: CollectorHandle) -> None:
        handle.stop_event = self._context.Event()
        handle._ready_event = self._context.Event()
        handle._port_value = self._context.Value("i", handle.port or 0)
        config = {
            "host": self._host,
            # A restarted collector rebinds its original port so its
            # address — what routers and manifests carry — stays stable.
            "port": handle.port or 0,
            "shards": self._shards,
            "checkpoint_dir": str(handle.checkpoint_dir),
            "checkpoint_interval": self._checkpoint_interval,
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

        The child resumes from its own ``state.npz`` (the durable-ACK
        restore path), so its live state supersedes — and therefore
        replaces — the supervisor's recovered snapshot for it.
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

    def stop_collector(self, index: int) -> None:
        """Graceful stop: the collector drains, checkpoints and exits."""
        handle = self._handles[index]
        if handle.stop_event is not None:
            handle.stop_event.set()

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
                if handle.status != "live":
                    continue
                if handle.process is not None and handle.process.is_alive():
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
        """:meth:`health_check` off the event loop.

        Recovering a dead collector restores its ``state.npz`` with
        synchronous file I/O and hashing, so the async paths (the failover
        oracle, the wire endpoint, :meth:`collect`) run the check in a
        worker thread — a client mid-failover never waits behind another
        client's disk read.
        """
        return await asyncio.to_thread(self.health_check)

    def _recover(self, handle: CollectorHandle) -> None:
        state_path = handle.checkpoint_dir / DURABLE_STATE_FILENAME
        tokens: Dict[str, Dict[str, int]] = {}
        session: Optional[AggregationSession] = None
        if not state_path.exists():
            # Death before the first durable checkpoint: nothing was ever
            # acknowledged, so an empty recovered state loses nothing.
            found = (
                sorted(
                    entry.name for entry in handle.checkpoint_dir.iterdir()
                )
                if handle.checkpoint_dir.is_dir()
                else []
            )
            _logger.warning(
                "collector %s left no %s (found: %s); recovering as empty",
                handle.collector_id,
                DURABLE_STATE_FILENAME,
                found if found else "no checkpoint directory",
            )
            self._lost[handle.collector_id] = (
                f"no durable {DURABLE_STATE_FILENAME} "
                f"(died before its first acknowledged group)"
            )
        else:
            try:
                session = AggregationSession.restore(state_path)
            except WireFormatError as error:
                # Covers zero-byte files, bad layouts, and integrity-trailer
                # mismatches (CheckpointIntegrityError subclasses
                # WireFormatError): quarantine and recover as empty.  The
                # empty token set makes clients replay every group the
                # quarantined state held, so the loss is repaired wherever
                # the clients are still alive to replay.
                moved, report = quarantine_checkpoint(
                    state_path,
                    f"recovery of dead collector {handle.collector_id} "
                    f"failed: {error}",
                )
                _logger.error(
                    "collector %s left a corrupt %s (%s); quarantined to "
                    "%s (report: %s); recovering as empty",
                    handle.collector_id,
                    DURABLE_STATE_FILENAME,
                    error,
                    moved,
                    report,
                )
                self._lost[handle.collector_id] = (
                    f"checkpoint quarantined: {error}"
                )
            else:
                raw = session.checkpoint_extra.get("acked_tokens", {})
                tokens = (
                    {str(key): dict(value) for key, value in raw.items()}
                    if isinstance(raw, dict)
                    else {}
                )
        if session is None:
            session = AggregationSession(self._spec, self._domain)
        self._recovered[handle.collector_id] = PulledState(
            collector_id=handle.collector_id,
            session=session,
            acked_tokens=tokens,
        )

    def recovered_states(self) -> Dict[str, PulledState]:
        """The recovered snapshots of currently-dead collectors, by id."""
        return dict(self._recovered)

    def recovered_tokens(self) -> Dict[str, Dict[str, int]]:
        """Acknowledged-group tokens across every recovered collector."""
        union: Dict[str, Dict[str, int]] = {}
        for state in self._recovered.values():
            for token, counts in state.acked_tokens.items():
                union[token] = dict(counts)
        return union

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

    async def collect(
        self, *, timeout: float = 15.0, retry=None
    ) -> FanInAggregator:
        """Pull every live collector's state, add the recovered dead ones.

        The returned :class:`FanInAggregator` holds exactly one snapshot
        per collector id — live snapshots win over recovered ones — so
        :meth:`FanInAggregator.merged_session` counts every acknowledged
        report exactly once.  ``retry`` is an optional
        :class:`~repro.resilience.RetryPolicy` for the (idempotent) pulls.
        """
        await self.health_check_async()
        aggregator = FanInAggregator(self._spec, self._domain)
        live = [
            handle for handle in self._handles if handle.status == "live"
        ]
        results = await asyncio.gather(
            *(
                aggregator.pull(
                    handle.host, handle.port, timeout=timeout, retry=retry
                )
                for handle in live
            ),
            return_exceptions=True,
        )
        for handle, result in zip(live, results):
            if isinstance(result, BaseException):
                raise CollectionServiceError(
                    f"cannot pull state from live collector "
                    f"{handle.collector_id} ({handle.host}:{handle.port}): "
                    f"{result}"
                ) from result
        for collector_id, state in self._recovered.items():
            if collector_id not in aggregator.collector_ids:
                aggregator.ingest(state)
        return aggregator

    def coverage_report(
        self,
        aggregator: FanInAggregator,
        expected_by_address: Optional[Dict[str, Any]] = None,
    ) -> CoverageReport:
        """Build the finalize ledger from supervisor knowledge.

        ``expected_by_address`` maps ``"host:port"`` strings to
        acknowledged report counts — either plain ints, or the
        ``{"frames", "reports", "groups"}`` counters a
        :class:`~repro.server.LoadReport` records in ``acked_by_target``
        (so ``report.acked_by_target`` can be passed verbatim); they are
        translated to collector ids here.  Status per collector: ``ok``
        while live, ``recovered`` when dead but restored from durable
        state, ``lost``/``quarantined`` when its state is gone.
        """
        expected: Dict[str, int] = {}
        for handle in self._handles:
            key = f"{handle.host}:{handle.port}"
            if expected_by_address and key in expected_by_address:
                counts = expected_by_address[key]
                if isinstance(counts, dict):
                    counts = counts.get("reports", 0)
                expected[handle.collector_id] = int(counts)
        received = aggregator.reports_by_collector()
        report = CoverageReport()
        for handle in self._handles:
            collector_id = handle.collector_id
            if collector_id in self._lost:
                detail = self._lost[collector_id]
                status = (
                    STATUS_QUARANTINED
                    if detail.startswith("checkpoint quarantined")
                    else STATUS_LOST
                )
            elif handle.status == "dead":
                status, detail = STATUS_RECOVERED, "merged from durable state"
            else:
                status, detail = STATUS_OK, ""
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

    async def finalize(
        self,
        *,
        allow_partial: bool = False,
        expected_by_address: Optional[Dict[str, int]] = None,
        timeout: float = 15.0,
        retry=None,
    ):
        """Collect the whole tree and finalize with coverage accounting.

        Strict by default: any collector whose reports are known (or
        expected) to be missing raises
        :class:`~repro.core.exceptions.PartialCoverageError` carrying the
        :class:`~repro.resilience.CoverageReport`; ``allow_partial=True``
        returns the estimator anyway with the report in its metadata.
        """
        aggregator = await self.collect(timeout=timeout, retry=retry)
        coverage = self.coverage_report(
            aggregator, expected_by_address=expected_by_address
        )
        return aggregator.finalize(
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
