"""One socket pass of a workload, measured from outside the collectors.

A pass spawns fresh collectors, drives the pre-encoded frames at them from
this process over ``CLIENTS`` closed-loop connections (each client waits for
its durable ACK before it opens the next connection group), pulls the state
back, finalizes it and runs the workload's release queries.  Collector CPU
and memory are read from outside the collector processes (their process CPU
clocks and ``/proc/<pid>/status``), so the collectors need no
instrumentation of their own.
"""

from __future__ import annotations

import asyncio
import io
import multiprocessing
import shutil
import statistics
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.domain import Domain
from repro.observability import set_enabled
from repro.server import CollectionServer, LoadGenerator
from repro.service.session import AggregationSession
from repro.service.spec import ProtocolSpec
from repro.topology import TopologySupervisor
from repro.topology.pull import pull_state, pull_stats_payload

from workloads import CLIENTS, RELEASE_WIDTHS, Workload

#: How long a collector may take from spawn to accepting connections.
READY_TIMEOUT_SECONDS = 60.0
#: Releases per pass; ``release_s`` is their median.
RELEASE_REPEATS = 5

#: Linux clock id bits selecting a process clock's scheduler runtime.
_CPUCLOCK_SCHED = 2


# ---------------------------------------------------------------------- #
# machine speed

#: CPU seconds ``calibrate`` takes on the reference host (a 2-vCPU VM,
#: Python 3.11, numpy 2.4) when nothing else loads it.  Time metrics are
#: quoted at this machine speed.
CALIBRATION_REFERENCE_SECONDS = 0.046


def calibrate() -> float:
    """CPU seconds of a fixed probe that runs no repro code.

    The probe does the kind of work a collector does: it parses a small npz
    archive and runs Python bytecode.  A shared host that slows the
    collectors down slows the probe down too; on the reference host the
    probe's time and the collector CPU per report of the pass it brackets
    correlate at r = 0.9.
    """
    buffer = io.BytesIO()
    np.savez(buffer, users=np.arange(500), bits=np.ones((500, 8), dtype=np.int8))
    blob = buffer.getvalue()
    started = time.process_time()
    for _ in range(300):
        with np.load(io.BytesIO(blob)) as archive:
            archive["users"], archive["bits"]
        total = 0
        for value in range(200):
            total += value * value
    return time.process_time() - started


# ---------------------------------------------------------------------- #
# collector CPU and memory


def proc_cpu_seconds(pid: int) -> float:
    """CPU seconds of a whole process, every thread, exited ones included.

    The quantity ``/proc/<pid>/stat`` reports as ``utime + stime``, read
    from the process's POSIX CPU clock instead, which counts nanoseconds
    rather than 10 ms ticks (a tick is ~1% of a pass's collector CPU).
    """
    return time.clock_gettime(((~pid) << 3) | _CPUCLOCK_SCHED)


def proc_memory_mb(pid: int) -> Dict[str, float]:
    """``VmRSS`` and ``VmHWM`` (resident set and its high-water mark), MiB."""
    found = {}
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            key = line.split(":", 1)[0]
            if key in ("VmRSS", "VmHWM"):
                found[key] = int(line.split()[1]) / 1024.0
    return found


# ---------------------------------------------------------------------- #
# the release: what a user of the collection receives


@dataclass
class Release:
    """Every released answer of one finalized estimator."""

    reports: int
    marginals: Tuple[np.ndarray, ...]
    discovery: object = None

    def same_as(self, other: "Release") -> bool:
        return (
            self.reports == other.reports
            and len(self.marginals) == len(other.marginals)
            and all(
                np.array_equal(mine, theirs)
                for mine, theirs in zip(self.marginals, other.marginals)
            )
            and self.discovery == other.discovery
        )


def release_masks(domain: Domain) -> List[int]:
    return [mask for width in RELEASE_WIDTHS for mask in domain.all_marginals(width)]


def marginal_answers(estimator) -> Tuple[np.ndarray, ...]:
    """Every 1- and 2-way marginal of a finalized estimator."""
    return tuple(
        np.array(estimator.query(mask).values, copy=True)
        for mask in release_masks(estimator.domain)
    )


def discovery(estimator):
    """The heavy-hitter discovery walk, when the estimator has one."""
    discover = getattr(estimator, "discover", None)
    return discover() if discover is not None else None


def answer(estimator, reports: int) -> Release:
    """Every release query of a workload against a finalized estimator."""
    return Release(reports, marginal_answers(estimator), discovery(estimator))


def release(session: AggregationSession) -> Release:
    """Finalize a session and answer every release query."""
    return answer(session.snapshot(), session.num_reports)


def reference_session(spec, domain: Domain, frames: Sequence[bytes]) -> AggregationSession:
    """The in-process fold: every frame through ``AggregationSession.submit``."""
    session = AggregationSession(spec, domain)
    for frame in frames:
        session.submit(frame)
    return session


# ---------------------------------------------------------------------- #
# collector hosting


def _stream_collector_main(spec_dict, attributes, shards, metrics_on, channel):
    """A forked process hosting one in-memory ``CollectionServer``.

    Reports its port over ``channel`` once listening, and stops as soon as
    the parent writes to (or closes) its end of the pipe.
    """
    set_enabled(metrics_on)
    spec = ProtocolSpec.from_dict(spec_dict)
    domain = Domain(attributes)

    async def main() -> None:
        server = CollectionServer(spec, domain, shards=shards)
        await server.start()
        channel.send(server.port)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        loop.add_reader(channel.fileno(), stop.set)
        try:
            await stop.wait()
        finally:
            loop.remove_reader(channel.fileno())
            await server.stop()
            # stop() stops waiting for a handler once it starts closing its
            # socket; let those finish instead of cancelling them at exit.
            others = asyncio.all_tasks() - {asyncio.current_task()}
            await asyncio.gather(*others, return_exceptions=True)

    asyncio.run(main())


def require_single_thread() -> None:
    """Refuse to fork collectors from a process that runs other threads.

    A forked child inherits only the forking thread, so a lock another
    thread held stays locked in it forever.  The benchmark therefore does
    its in-process kernel work, which may start the threaded backend's
    pool, only after its last socket pass.
    """
    if threading.active_count() != 1:
        raise RuntimeError("refusing to fork collectors from a threaded process")


class StreamHost:
    """One in-memory collector with ``workload.shards`` shards, own process."""

    def __init__(self, workload: Workload, spec, domain: Domain, metrics_on: bool):
        # Forked, the way TopologySupervisor starts its collectors: a spawned
        # interpreter re-imports numpy and repro, which costs more than a
        # whole pass.
        require_single_thread()
        context = multiprocessing.get_context("fork")
        self._channel, child_channel = context.Pipe()
        self._process = context.Process(
            target=_stream_collector_main,
            args=(
                spec.to_dict(),
                list(domain.attributes),
                workload.shards,
                metrics_on,
                child_channel,
            ),
            daemon=True,
        )
        self._process.start()
        child_channel.close()
        if not self._channel.poll(READY_TIMEOUT_SECONDS):
            self.close()
            raise RuntimeError("stream collector did not come up")
        self._port = int(self._channel.recv())

    @property
    def addresses(self) -> List[Tuple[str, int]]:
        return [("127.0.0.1", self._port)]

    @property
    def pids(self) -> List[int]:
        return [self._process.pid]

    async def pull(self) -> AggregationSession:
        return (await pull_state(*self.addresses[0])).session

    def close(self) -> None:
        try:
            self._channel.send("stop")
        except OSError:
            pass
        self._channel.close()
        self._process.join(15.0)
        if self._process.is_alive():
            self._process.kill()
            self._process.join(5.0)


class TreeHost:
    """``workload.collectors`` durable collectors under a TopologySupervisor."""

    def __init__(self, workload: Workload, spec, domain: Domain, base_dir: Path):
        require_single_thread()
        self._supervisor = TopologySupervisor(
            spec,
            domain,
            collectors=workload.collectors,
            base_dir=base_dir,
            shards=workload.shards,
            start_timeout=READY_TIMEOUT_SECONDS,
        )
        self._supervisor.start()

    @property
    def addresses(self) -> List[Tuple[str, int]]:
        return list(self._supervisor.addresses)

    @property
    def pids(self) -> List[int]:
        return [handle.process.pid for handle in self._supervisor.handles]

    async def pull(self) -> AggregationSession:
        return (await self._supervisor.collect()).merged_session()

    def close(self) -> None:
        self._supervisor.shutdown()


# ---------------------------------------------------------------------- #
# one pass


@dataclass
class PassResult:
    """What one pass measured; a pass that raised keeps only ``error``."""

    metrics_on: bool
    groups: int
    #: Mean ``calibrate`` time just before and just after the pass.
    probe_seconds: float = 0.0
    spawn_seconds: float = 0.0
    failed_groups: int = 0
    acked_reports: int = 0
    wire_bytes: int = 0
    ingest_seconds: float = 0.0
    collector_cpu_seconds: float = 0.0
    loadgen_cpu_seconds: float = 0.0
    pull_seconds: float = 0.0
    release_seconds: float = 0.0
    #: Largest rise of a collector's VmHWM above its VmRSS at ready.
    rss_growth_mb: float = 0.0
    ack_gaps_seconds: List[float] = field(default_factory=list)
    release: Optional[Release] = None
    retries: int = 0
    error: Optional[str] = None
    #: Collector ``STATS`` payloads before and after the ingest phase
    #: (traced passes only), one per collector.
    stats_before: List[dict] = field(default_factory=list)
    stats_after: List[dict] = field(default_factory=list)


async def _stats(addresses) -> List[dict]:
    return [await pull_stats_payload(host, port) for host, port in addresses]


async def _drive(host, workload: Workload, spec, domain, frames, token_prefix, result):
    acks: Dict[int, List[float]] = {client: [] for client in range(CLIENTS)}

    def on_group_done(client_id: int, group_index: int) -> None:
        acks[client_id].append(time.perf_counter())

    fleet = LoadGenerator(
        spec,
        domain,
        targets=host.addresses,
        frames=frames,
        num_clients=CLIENTS,
        frames_per_connection=workload.frames_per_connection,
        token_prefix=token_prefix,
        on_group_done=on_group_done,
    )
    if result.metrics_on:
        result.stats_before = await _stats(host.addresses)
    ready_rss = [proc_memory_mb(pid)["VmRSS"] for pid in host.pids]
    cpu_before = [proc_cpu_seconds(pid) for pid in host.pids]
    loadgen_before = time.process_time()
    started = time.perf_counter()
    report = await fleet.run()
    result.loadgen_cpu_seconds = time.process_time() - loadgen_before
    result.collector_cpu_seconds = sum(
        proc_cpu_seconds(pid) - before for pid, before in zip(host.pids, cpu_before)
    )
    if result.metrics_on:
        result.stats_after = await _stats(host.addresses)

    # The release only reads the collectors, so it is repeated and the
    # median kept: one fan-in of ~10 ms per pass is too few samples for a
    # median that repeats between runs.
    pulls, releases = [], []
    for _ in range(RELEASE_REPEATS):
        started_release = time.perf_counter()
        session = await host.pull()
        pulled = time.perf_counter()
        answered = release(session)
        releases.append(time.perf_counter() - started_release)
        pulls.append(pulled - started_release)
        if result.release is None:
            result.release = answered
        elif not answered.same_as(result.release):
            raise RuntimeError("two releases of the same collectors differ")
    result.pull_seconds = statistics.median(pulls)
    result.release_seconds = statistics.median(releases)
    result.rss_growth_mb = max(
        proc_memory_mb(pid)["VmHWM"] - rss for pid, rss in zip(host.pids, ready_rss)
    )

    for stamps in acks.values():
        previous = started
        for stamp in stamps:
            result.ack_gaps_seconds.append(stamp - previous)
            previous = stamp
    acked_groups = sum(counts["groups"] for counts in report.acked_by_target.values())
    result.failed_groups = min(
        workload.groups,
        report.retries
        + report.rejected_connections
        + max(workload.groups - acked_groups, 0),
    )
    result.acked_reports = report.acked_reports
    result.wire_bytes = report.bytes
    result.ingest_seconds = report.duration_seconds
    result.retries = report.retries


def run_pass(
    workload: Workload,
    spec,
    domain: Domain,
    frames: Sequence[bytes],
    scratch: Path,
    *,
    index: int,
    traced: bool,
) -> PassResult:
    """One pass on fresh collectors; ``traced`` turns metrics and spans on."""
    set_enabled(traced)
    result = PassResult(metrics_on=traced, groups=workload.groups)
    base_dir = Path(tempfile.mkdtemp(prefix=f"pass{index:03d}-", dir=scratch))
    try:
        spawned = time.perf_counter()
        if workload.hosting == "stream":
            host = StreamHost(workload, spec, domain, traced)
            token_prefix = None
        else:
            host = TreeHost(workload, spec, domain, base_dir)
            token_prefix = f"p{index}"
        result.spawn_seconds = time.perf_counter() - spawned
        try:
            asyncio.run(_drive(host, workload, spec, domain, frames, token_prefix, result))
        except Exception:  # a failed pass is reported, not fatal
            result.error = traceback.format_exc()
            result.failed_groups = workload.groups
        finally:
            host.close()
        return result
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)
