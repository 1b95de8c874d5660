"""The multi-process socket tier: one collector per core, one port.

:class:`MultiProcessCollector` scales :class:`CollectionServer` past a
single event loop by running ``processes`` worker processes that all bind
the same address with ``SO_REUSEPORT`` — the kernel load-balances incoming
connections across them, so clients need no changes and no userspace proxy
sits on the hot path.  Each worker owns its own shard sessions and writes
its own checkpoints (``checkpoint_dir/worker-WW/shard-NN.npz``);
:meth:`MultiProcessCollector.join` merges every worker's checkpoints
through :func:`merge_checkpoints`, i.e. through the same exact
``AggregationSession.merge`` algebra that makes single-process sharding
estimate-invariant.  Splitting connections across processes is therefore
just another grouping of the same report batches, and the merged estimates
are bit-for-bit what one process would have produced.

A global ``stop_after_reports`` target is enforced through one shared
counter: every worker server adds each committed group's report count to
it (``CollectionServer``'s ``report_observer`` hook) and a tiny per-worker
watcher polls the total, requesting a fleet-wide stop the moment the
target is reached.
"""

from __future__ import annotations

import asyncio
import glob
import multiprocessing
import socket
from pathlib import Path
from typing import List, Optional, Union

from ..core.domain import Domain
from ..core.exceptions import CollectionServiceError, ProtocolConfigurationError
from ..observability import MetricsSnapshot
from ..resilience.defaults import COUNTER_POLL_SECONDS
from ..service.session import AggregationSession
from ..service.spec import ProtocolSpec
from .server import DEFAULT_MAX_FRAME_BYTES, CollectionServer, merge_checkpoints

__all__ = ["MultiProcessCollector"]

PathLike = Union[str, Path]


def _worker_main(
    worker_index: int,
    spec_dict: dict,
    attributes: list,
    config: dict,
    counter,
    stop_event,
    ready_event,
) -> None:
    """One collector process: bind (SO_REUSEPORT), serve, checkpoint, exit.

    Top-level (not a closure) so every multiprocessing start method can
    pickle it.  All coordination state — the shared report counter, the
    fleet-wide stop event, this worker's ready event — comes in as
    arguments.
    """
    spec = ProtocolSpec.from_dict(spec_dict)
    domain = Domain(attributes)
    target = config["stop_after_reports"]

    def observe(delta: int) -> None:
        with counter.get_lock():
            counter.value += delta

    worker_dir = Path(config["checkpoint_dir"]) / f"worker-{worker_index:02d}"

    async def main() -> None:
        server = CollectionServer(
            spec,
            domain,
            host=config["host"],
            port=config["port"],
            shards=config["shards"],
            max_frame_bytes=config["max_frame_bytes"],
            reuse_port=True,
            checkpoint_dir=worker_dir,
            report_observer=observe,
        )
        await server.start()
        ready_event.set()

        async def watch() -> None:
            # The shared counter is the only global view of progress, so
            # the target check must live here, not in CollectionServer's
            # per-process stop_after_reports.
            while not stop_event.is_set():
                if target is not None:
                    with counter.get_lock():
                        collected = counter.value
                    if collected >= target:
                        stop_event.set()
                        break
                await asyncio.sleep(COUNTER_POLL_SECONDS)
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
        # Per-worker metrics ride the same channel as per-worker
        # checkpoints: a snapshot file next to the shard files, merged by
        # the parent in join() through the snapshot merge algebra.
        metrics_path = worker_dir / "metrics.json"
        metrics_path.parent.mkdir(parents=True, exist_ok=True)
        metrics_path.write_text(server.metrics_snapshot().to_json())

    asyncio.run(main())


class MultiProcessCollector:
    """Run ``processes`` :class:`CollectionServer` workers on one port.

    Parameters mirror :class:`CollectionServer` where they share meaning;
    ``checkpoint_dir`` is mandatory because worker checkpoints are the
    merge channel back to the parent.  ``stop_after_reports`` is a *fleet*
    total, enforced through a shared counter.

    Lifecycle: :meth:`start` spawns the workers and blocks until every one
    is accepting connections (the bound port is then :attr:`port`);
    :meth:`join` waits for them to exit and returns the merged
    :class:`AggregationSession`; :meth:`stop` requests a fleet-wide stop.
    """

    def __init__(
        self,
        spec,
        domain: Domain,
        *,
        processes: int,
        checkpoint_dir: PathLike,
        host: str = "127.0.0.1",
        port: int = 0,
        shards: int = 1,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        stop_after_reports: Optional[int] = None,
        start_timeout: float = 30.0,
    ):
        if processes < 1:
            raise ProtocolConfigurationError(
                f"process count must be >= 1, got {processes}"
            )
        if not hasattr(socket, "SO_REUSEPORT"):
            raise ProtocolConfigurationError(
                "the multi-process tier needs SO_REUSEPORT, which this "
                "platform does not support"
            )
        if stop_after_reports is not None and stop_after_reports < 1:
            raise ProtocolConfigurationError(
                f"stop_after_reports must be >= 1, got {stop_after_reports}"
            )
        if not isinstance(spec, ProtocolSpec):
            spec = ProtocolSpec.from_protocol(spec)
        if not isinstance(domain, Domain):
            raise ProtocolConfigurationError(
                f"a MultiProcessCollector needs a Domain, "
                f"got {type(domain).__name__}"
            )
        self._spec = spec
        self._domain = domain
        self._processes = int(processes)
        self._checkpoint_dir = Path(checkpoint_dir)
        self._host = host
        self._requested_port = int(port)
        self._config = {
            "host": host,
            "port": int(port),  # rewritten in start() when 0
            "shards": int(shards),
            "max_frame_bytes": int(max_frame_bytes),
            "checkpoint_dir": str(self._checkpoint_dir),
            "stop_after_reports": stop_after_reports,
        }
        self._start_timeout = float(start_timeout)
        self._context = multiprocessing.get_context()
        self._counter = self._context.Value("q", 0)
        self._stop_event = self._context.Event()
        self._workers: List = []
        self._placeholder: Optional[socket.socket] = None
        self._port: Optional[int] = None
        self._metrics: Optional[MetricsSnapshot] = None

    @property
    def metrics_snapshot(self) -> Optional[MetricsSnapshot]:
        """The fleet-wide merged metrics (populated by :meth:`join`)."""
        return self._metrics

    @property
    def port(self) -> Optional[int]:
        """The shared bound port (``None`` before :meth:`start`)."""
        return self._port

    @property
    def num_reports(self) -> int:
        """Fleet-wide user reports collected so far (the shared counter)."""
        with self._counter.get_lock():
            return int(self._counter.value)

    def start(self) -> "MultiProcessCollector":
        """Spawn the workers; returns once every one accepts connections."""
        if self._workers:
            raise ProtocolConfigurationError("the collector is already started")
        port = self._requested_port
        if port == 0:
            # Reserve a port by holding a bound (not listening) socket in
            # the SO_REUSEPORT group; workers join the group, and only
            # their listening sockets receive connections.  The reservation
            # is released once every worker is bound, leaving no race with
            # unrelated processes.
            self._placeholder = socket.socket(
                socket.AF_INET, socket.SOCK_STREAM
            )
            self._placeholder.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
            )
            self._placeholder.bind((self._host, 0))
            port = self._placeholder.getsockname()[1]
        self._port = port
        self._config["port"] = port
        ready_events = []
        spec_dict = self._spec.to_dict()
        attributes = list(self._domain.attributes)
        for worker_index in range(self._processes):
            ready = self._context.Event()
            worker = self._context.Process(
                target=_worker_main,
                args=(
                    worker_index,
                    spec_dict,
                    attributes,
                    dict(self._config),
                    self._counter,
                    self._stop_event,
                    ready,
                ),
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)
            ready_events.append(ready)
        for worker, ready in zip(self._workers, ready_events):
            if not ready.wait(self._start_timeout):
                self.stop()
                raise CollectionServiceError(
                    f"collector worker {worker.pid} did not come up within "
                    f"{self._start_timeout:.1f}s"
                )
        self._release_placeholder()
        return self

    def stop(self) -> None:
        """Request a fleet-wide stop (workers drain, checkpoint and exit)."""
        self._stop_event.set()

    def join(self, timeout: Optional[float] = None) -> AggregationSession:
        """Wait for every worker, then merge their checkpoints.

        Returns the merged :class:`AggregationSession` — by the merge
        algebra, exactly the session one process would have accumulated
        over the same reports.
        """
        if not self._workers:
            raise ProtocolConfigurationError("the collector was never started")
        for worker in self._workers:
            worker.join(timeout)
            if worker.is_alive():
                raise CollectionServiceError(
                    f"collector worker {worker.pid} is still running after "
                    f"the join timeout"
                )
        self._release_placeholder()
        failed = [
            worker for worker in self._workers if worker.exitcode != 0
        ]
        if failed:
            raise CollectionServiceError(
                f"{len(failed)} collector worker(s) exited with "
                f"{sorted(worker.exitcode for worker in failed)}"
            )
        paths = sorted(
            glob.glob(str(self._checkpoint_dir / "worker-*" / "shard-*.npz"))
        )
        if not paths:
            raise CollectionServiceError(
                f"no worker checkpoints found under {self._checkpoint_dir}"
            )
        self._metrics = self._merge_worker_metrics()
        return merge_checkpoints(paths)

    def _merge_worker_metrics(self) -> MetricsSnapshot:
        """Fold every worker's metrics.json into one snapshot.

        Purely additive (the snapshot merge algebra), so worker count and
        merge order do not matter — the same invariance argument as the
        checkpoint merge.  A worker that never wrote metrics (killed hard,
        metrics disabled mid-flight) just contributes nothing.
        """
        merged = MetricsSnapshot.empty()
        for path in sorted(self._checkpoint_dir.glob("worker-*/metrics.json")):
            try:
                merged = merged.merge(MetricsSnapshot.from_json(path.read_text()))
            except (OSError, ValueError):
                continue
        return merged

    def _release_placeholder(self) -> None:
        if self._placeholder is not None:
            self._placeholder.close()
            self._placeholder = None
