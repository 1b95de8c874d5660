"""A client-fleet simulator for hammering a :class:`CollectionServer`.

:class:`LoadGenerator` spins up ``num_clients`` concurrent asyncio clients
against one server.  Each client owns a slice of the report frames — either
pre-encoded frames handed in by the caller (the reproducible path used by
the equality tests and ``repro load --dataset``) or records it synthesizes
and encodes itself via ``encode_batch`` — cuts it into groups of
``frames_per_connection`` frames and plays the session protocol once per
group: ``HELLO`` handshake, a stream of report frames, ``FIN``, then
verifies the server's ``ACK`` counts.  Connections are kept alive: each
client holds one open connection per collector address and sends every
group routed there over it, so connect, accept, set-up and close are paid
by the first group to an address and again only after a failure (which
closes the connection; so does the end of the client's run).  Once an
address has answered this generator's ``HELLO`` with ``OK``, later groups
there are pipelined: ``HELLO``, frames and ``FIN`` go out together and
``OK`` and ``ACK`` are read after, one round trip per group.  A group
leaves in runs of at most :data:`DRAIN_EVERY` frames, each one
``writelines`` (the first run led by the pipelined ``HELLO``, the last
closed by ``FIN``), so a group of up to that many frames is one send; the
collector answers it with ``OK`` and ``ACK`` in one write.  The first
group to an address, and the first after any failure there, still waits
for ``OK`` before sending frames, so a spec mismatch always earns the
readable ``ERR``.  Fault injection (``malformed_connections``) opens
extra poison connections that send garbage and expect a per-connection
``ERR`` rejection — proving the server survives hostile input while the
well-formed fleet proceeds.

The fleet can also drive a whole multi-collector tree: pass ``targets``
(several collector addresses) instead of ``host``/``port`` and each group
of frames is routed by a :mod:`repro.topology.router` policy.  With a
``token_prefix`` every group carries a unique idempotency token in its
``HELLO``, and with a ``failover`` oracle (the topology supervisor's
verdict on a broken address) a client survives a collector death
mid-stream: groups the dead collector durably acknowledged are counted
from the recovered token set, everything else is replayed to a surviving
collector — never both, so nothing is lost and nothing double-counts.

:meth:`LoadGenerator.run` returns a :class:`LoadReport` with the achieved
throughput (reports/sec, MB/sec) and per-client accounting.
"""

from __future__ import annotations

import asyncio
import inspect
import math
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.domain import Domain
from ..core.exceptions import (
    CollectionServiceError,
    ProtocolConfigurationError,
    WireFormatError,
)
from ..core.rng import RngLike, ensure_rng, spawn_rngs
from ..observability import get_registry, metrics_enabled, trace
from ..resilience.defaults import (
    CONNECT_POLL_SECONDS,
    DEFAULT_CONNECT_TIMEOUT,
    DEFAULT_IO_TIMEOUT,
    LOADGEN_RETRY_POLICY,
)
from ..resilience.policies import RetryPolicy
from ..resilience.spool import ReportSpool
from ..service.spec import ProtocolSpec
from .framing import (
    ACK,
    ERR,
    FIN,
    HELLO,
    OK,
    POISON_FRAME,
    ControlMessage,
    FrameDecoder,
    encode_control,
)
from .handshake import hello_payload

__all__ = ["ClientResult", "LoadReport", "LoadGenerator"]

#: Bytes asked of the socket per read while waiting for OK/ACK/ERR.
READ_CHUNK_BYTES = 1 << 16
#: Await the writer's flow-control drain once per this many frames rather
#: than after every frame (the transport's high-water mark still applies
#: backpressure in between).  Per-frame draining costs a scheduler
#: round-trip per frame and was the client-side ingest bottleneck.
DRAIN_EVERY = 16

_LG_COUNTERS = None


def _loadgen_counters():
    """Lazy fleet-side counters on the process registry (created once)."""
    global _LG_COUNTERS
    if _LG_COUNTERS is None:
        registry = get_registry()
        _LG_COUNTERS = (
            registry.counter(
                "repro_loadgen_acked_frames_total",
                "Report frames acknowledged to the client fleet.",
            ),
            registry.counter(
                "repro_loadgen_acked_reports_total",
                "User reports acknowledged to the client fleet.",
            ),
            registry.counter(
                "repro_loadgen_bytes_sent_total",
                "Report payload bytes put on the wire by the fleet.",
            ),
            registry.counter(
                "repro_loadgen_retries_total",
                "Group delivery retries across the fleet.",
            ),
            registry.counter(
                "repro_loadgen_groups_total",
                "Connection groups settled, by how they were satisfied.",
                labels=("outcome",),
            ),
        )
    return _LG_COUNTERS


@dataclass
class ClientResult:
    """One simulated client's accounting."""

    client_id: int
    #: Connections opened (a kept-alive connection carries many groups).
    connections: int = 0
    frames: int = 0
    bytes: int = 0
    acked_frames: int = 0
    acked_reports: int = 0
    rejected_connections: int = 0
    retries: int = 0
    recovered_groups: int = 0
    #: Groups satisfied from the durable spool after a restart (either a
    #: committed group's recorded counts, or a pending group's recorded
    #: bytes replayed under its original token).
    spool_replays: int = 0
    #: Acknowledged counts per target, keyed ``"host:port"`` — the client
    #: side of exact loss accounting: these totals stay available even
    #: when a collector's own durable state is gone.
    acked_by_target: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def credit_target(self, address: str, frames: int, reports: int) -> None:
        entry = self.acked_by_target.setdefault(
            address, {"frames": 0, "reports": 0, "groups": 0}
        )
        entry["frames"] += int(frames)
        entry["reports"] += int(reports)
        entry["groups"] += 1

    def to_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__)


@dataclass
class LoadReport:
    """Fleet-level result of one :meth:`LoadGenerator.run`."""

    duration_seconds: float
    clients: int
    connections: int
    frames: int
    bytes: int
    acked_frames: int
    acked_reports: int
    rejected_connections: int
    retries: int = 0
    recovered_groups: int = 0
    spool_replays: int = 0
    acked_by_target: Dict[str, Dict[str, int]] = field(default_factory=dict)
    per_client: List[ClientResult] = field(default_factory=list)

    @property
    def reports_per_second(self) -> float:
        return (
            self.acked_reports / self.duration_seconds
            if self.duration_seconds > 0
            else 0.0
        )

    @property
    def megabytes_per_second(self) -> float:
        return (
            self.bytes / (1e6 * self.duration_seconds)
            if self.duration_seconds > 0
            else 0.0
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "duration_seconds": self.duration_seconds,
            "clients": self.clients,
            "connections": self.connections,
            "frames": self.frames,
            "bytes": self.bytes,
            "acked_frames": self.acked_frames,
            "acked_reports": self.acked_reports,
            "rejected_connections": self.rejected_connections,
            "retries": self.retries,
            "recovered_groups": self.recovered_groups,
            "spool_replays": self.spool_replays,
            "acked_by_target": {
                address: dict(counts)
                for address, counts in self.acked_by_target.items()
            },
            "reports_per_second": self.reports_per_second,
            "megabytes_per_second": self.megabytes_per_second,
            "per_client": [client.to_dict() for client in self.per_client],
        }


class _Connection:
    """One client connection: the writer, and control messages read back.

    A connection outlives its group: :attr:`reusable` says whether the
    next group routed to the same address may go over it.
    """

    def __init__(self, reader, writer):
        self.writer = writer
        self._reader = reader
        self._decoder = FrameDecoder()
        self._pending = deque()

    @property
    def reusable(self) -> bool:
        """False once the server has closed it (or it is closing here)."""
        return not (self._reader.at_eof() or self.writer.is_closing())

    async def next_message(self) -> ControlMessage:
        while not self._pending:
            try:
                chunk = await asyncio.wait_for(
                    self._reader.read(READ_CHUNK_BYTES), DEFAULT_IO_TIMEOUT
                )
            except asyncio.TimeoutError:
                raise CollectionServiceError(
                    f"server sent no response within {DEFAULT_IO_TIMEOUT:.1f}s"
                ) from None
            if not chunk:
                raise CollectionServiceError(
                    "server closed the connection mid-session"
                )
            try:
                self._pending.extend(self._decoder.feed(chunk))
            except WireFormatError as error:
                raise CollectionServiceError(
                    f"server answered out of protocol: {error}"
                ) from error
        item = self._pending.popleft()
        if not isinstance(item, ControlMessage):
            raise CollectionServiceError(
                "server sent a report frame; expected a control message"
            )
        return item

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _expect_ok(response: ControlMessage) -> None:
    """Raise unless ``response`` is the ``OK`` answering a ``HELLO``."""
    if response.kind == ERR:
        reason = response.payload.get("error", "rejected")
        diff = response.payload.get("diff")
        detail = "\n  ".join([reason] + (diff or []))
        raise CollectionServiceError(
            f"server rejected the HELLO handshake: {detail}"
        )
    if response.kind != OK:
        raise CollectionServiceError(
            f"expected OK after HELLO, got {response.kind}"
        )


class LoadGenerator:
    """Drive ``num_clients`` concurrent simulated clients at one server.

    Parameters
    ----------
    spec, domain:
        The collection contract, exactly as on the server (a spec mismatch
        here is the rejection path, not a usage error).
    host, port:
        The server's address.
    frames:
        Optional pre-encoded wire frames, distributed round-robin over the
        clients.  When omitted each client synthesizes
        ``records_per_client`` uniform records and encodes them itself in
        ``batch_size`` batches (one frame per batch) with a per-client
        child generator of ``seed``.
    frames_per_connection:
        Group size: each client cuts its frames into groups of this many,
        each its own ``HELLO`` … ``FIN``/``ACK`` (and its own token).
        ``None`` sends each client's frames as one group.  Groups to one
        address share one kept-alive connection.
    malformed_connections:
        Extra poison connections (spread over the fleet) that handshake
        correctly, then send garbage and expect a per-connection ``ERR``.
    connect_timeout:
        Seconds a target's first connect keeps retrying while its socket
        is not yet accepting (default
        :data:`~repro.resilience.defaults.DEFAULT_CONNECT_TIMEOUT`); must
        be finite and positive.
    targets, routing:
        Instead of one ``host``/``port``, a list of collector addresses
        and the routing policy (``round-robin`` or ``hash``) that deals
        connection groups across them.
    token_prefix:
        When set, every group's ``HELLO`` carries the idempotency token
        ``{token_prefix}/c{client}/g{group}`` — required for exact
        retry/failover against durable collectors.
    failover:
        A callable ``address -> {"dead": bool, "acked_tokens": {...}}``
        (sync or async) consulted after a failed group delivery; typically
        :meth:`repro.topology.TopologySupervisor.failover` or its wire
        twin.  ``dead: True`` means the address's durable checkpoint has
        been recovered, so the token set is complete: recovered groups are
        counted, the rest replay to surviving collectors.
    retry:
        The :class:`~repro.resilience.RetryPolicy` of per-group delivery
        (default :data:`~repro.resilience.defaults.LOADGEN_RETRY_POLICY`:
        three retries 0.2, 0.4 and 0.6 s apart).
    spool_dir:
        Durable store-and-forward: every group's frames are fsync'd to
        ``spool_dir/client-NNNN.spool`` *before* first transmission and
        committed there once acknowledged.  A crashed-and-restarted
        client (same constructor arguments) replays pending groups
        byte-exactly under their original idempotency tokens and counts
        committed ones without touching the network — no loss, no
        double-folding.  Requires ``token_prefix``.
    on_group_done:
        Test hook called (sync or async) after every delivered group with
        ``(client_id, group_index)`` — the fault-injection harness uses it
        to kill collectors at deterministic points mid-stream.
    """

    def __init__(
        self,
        spec,
        domain: Domain,
        host: Optional[str] = None,
        port: Optional[int] = None,
        *,
        targets: Optional[Sequence[Tuple[str, int]]] = None,
        routing: str = "round-robin",
        token_prefix: Optional[str] = None,
        failover: Optional[Callable[..., Any]] = None,
        retry: Optional[RetryPolicy] = None,
        spool_dir: Optional[Union[str, Path]] = None,
        on_group_done: Optional[Callable[[int, int], Any]] = None,
        frames: Optional[Sequence[bytes]] = None,
        num_clients: int = 4,
        records_per_client: int = 256,
        batch_size: Optional[int] = 64,
        seed: int = 20180610,
        frames_per_connection: Optional[int] = None,
        malformed_connections: int = 0,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ):
        if not isinstance(spec, ProtocolSpec):
            spec = ProtocolSpec.from_protocol(spec)
        if (host is None) != (port is None):
            raise ProtocolConfigurationError(
                "host and port must be given together"
            )
        if (host is None) == (targets is None):
            raise ProtocolConfigurationError(
                "give either host/port (one collector) or targets "
                "(a topology), not both"
            )
        if num_clients < 1:
            raise ProtocolConfigurationError(
                f"num_clients must be >= 1, got {num_clients}"
            )
        if frames is None and records_per_client < 1:
            raise ProtocolConfigurationError(
                f"records_per_client must be >= 1, got {records_per_client}"
            )
        if frames_per_connection is not None and frames_per_connection < 1:
            raise ProtocolConfigurationError(
                f"frames_per_connection must be >= 1, got {frames_per_connection}"
            )
        if malformed_connections < 0:
            raise ProtocolConfigurationError(
                f"malformed_connections must be >= 0, got {malformed_connections}"
            )
        if not (math.isfinite(connect_timeout) and connect_timeout > 0):
            raise ProtocolConfigurationError(
                f"connect_timeout must be a finite number of seconds > 0, "
                f"got {connect_timeout}"
            )
        self._spec = spec
        self._protocol = spec.build()
        self._domain = domain
        # Runtime import: repro.topology imports repro.server, so pulling
        # the router in at module scope would be a cycle.
        from ..topology.router import make_router

        self._router = make_router(
            routing,
            targets if targets is not None else [(host, port)],
        )
        self._token_prefix = (
            str(token_prefix) if token_prefix is not None else None
        )
        self._failover = failover
        # Addresses that have accepted at least one connection: their
        # reconnects may take the short failover path in _connect.
        self._contacted: set = set()
        self._retry_policy = retry if retry is not None else LOADGEN_RETRY_POLICY
        if spool_dir is not None and self._token_prefix is None:
            raise ProtocolConfigurationError(
                "spool_dir requires a token_prefix: replaying spooled "
                "groups without idempotency tokens could double-fold them"
            )
        self._spool_dir = Path(spool_dir) if spool_dir is not None else None
        self._on_group_done = on_group_done
        self._frames = list(frames) if frames is not None else None
        self._num_clients = num_clients
        self._records_per_client = records_per_client
        self._batch_size = batch_size
        self._seed = seed
        self._frames_per_connection = frames_per_connection
        self._malformed_connections = malformed_connections
        self._connect_timeout = float(connect_timeout)
        self._hello_payload = hello_payload(spec, domain.attributes)
        self._hello = encode_control(HELLO, self._hello_payload)
        # Addresses whose last connection from here was answered OK and
        # did not fail since: groups to them are pipelined.
        self._greeted: set = set()
        # The kept-alive connection per (client id, address).
        self._open: Dict[Tuple[int, Tuple[str, int]], _Connection] = {}

    @property
    def router(self):
        """The live :class:`~repro.topology.Router` dealing out groups."""
        return self._router

    # ------------------------------------------------------------------ #
    # frame preparation

    @staticmethod
    def frames_for_dataset(
        spec, dataset, batch_size: Optional[int] = None, rng: RngLike = None
    ) -> List[bytes]:
        """Encode a dataset into frames with ``run_streaming``'s rng discipline.

        One child generator per batch (the caller's generator itself for a
        single batch), so — for the same dataset, seed and batch size — the
        frames carry exactly the reports an in-process
        ``run_streaming(dataset, rng, batch_size=...)`` would aggregate.
        Collecting them over sockets therefore finalizes to bit-for-bit
        identical estimates, which is the service's end-to-end equality
        proof.
        """
        if not isinstance(spec, ProtocolSpec):
            spec = ProtocolSpec.from_protocol(spec)
        protocol = spec.build()
        generator = ensure_rng(rng)
        num_batches = dataset.num_batches(batch_size)
        if num_batches == 1:
            batch_rngs = [generator]
        else:
            batch_rngs = spawn_rngs(generator, num_batches)
        return [
            protocol.encode_batch(chunk, rng=chunk_rng).to_bytes()
            for chunk, chunk_rng in zip(
                dataset.iter_batches(batch_size), batch_rngs
            )
        ]

    def client_frames(self) -> List[List[bytes]]:
        """Each client's frame list, deterministic in the constructor args.

        Pre-encoded ``frames`` are dealt round-robin; otherwise client ``i``
        encodes its own synthetic records with the ``i``-th child generator
        of ``seed``.  Exposed so tests (and CI) can rebuild the exact
        submitted reports for an in-process baseline.
        """
        per_client: List[List[bytes]] = [[] for _ in range(self._num_clients)]
        if self._frames is not None:
            for position, frame in enumerate(self._frames):
                per_client[position % self._num_clients].append(frame)
            return per_client
        client_rngs = spawn_rngs(
            np.random.default_rng(self._seed), self._num_clients
        )
        dimension = self._domain.dimension
        batch = self._batch_size or self._records_per_client
        for client_id, client_rng in enumerate(client_rngs):
            records = client_rng.integers(
                0, 2, size=(self._records_per_client, dimension), dtype=np.int8
            )
            for start in range(0, self._records_per_client, batch):
                chunk = records[start : start + batch]
                per_client[client_id].append(
                    self._protocol.encode_batch(chunk, rng=client_rng).to_bytes()
                )
        return per_client

    # ------------------------------------------------------------------ #
    # the fleet

    async def run(self) -> LoadReport:
        """Run the whole fleet; returns the aggregate :class:`LoadReport`."""
        per_client_frames = self.client_frames()
        results = [
            ClientResult(client_id=client_id)
            for client_id in range(self._num_clients)
        ]
        # Poison phase first (concurrently), payload phase second: every
        # injected fault is answered before the first valid frame ships, so
        # a server configured to stop after a known report count cannot
        # shut down while a poison exchange is still in flight.
        if self._malformed_connections:
            await asyncio.gather(
                *(
                    self._poison_connection(
                        results[position % self._num_clients]
                    )
                    for position in range(self._malformed_connections)
                )
            )
        # Time only the payload phase: throughput must not be diluted by
        # the fault-injection exchanges.
        started = time.monotonic()
        await asyncio.gather(
            *(
                self._run_client(results[client_id], frames)
                for client_id, frames in enumerate(per_client_frames)
            )
        )
        duration = time.monotonic() - started
        by_target: Dict[str, Dict[str, int]] = {}
        for result in results:
            for address, counts in result.acked_by_target.items():
                entry = by_target.setdefault(
                    address, {"frames": 0, "reports": 0, "groups": 0}
                )
                for key in entry:
                    entry[key] += int(counts.get(key, 0))
        return LoadReport(
            duration_seconds=duration,
            clients=len(results),
            connections=sum(result.connections for result in results),
            frames=sum(result.frames for result in results),
            bytes=sum(result.bytes for result in results),
            acked_frames=sum(result.acked_frames for result in results),
            acked_reports=sum(result.acked_reports for result in results),
            rejected_connections=sum(
                result.rejected_connections for result in results
            ),
            retries=sum(result.retries for result in results),
            recovered_groups=sum(
                result.recovered_groups for result in results
            ),
            spool_replays=sum(result.spool_replays for result in results),
            acked_by_target=by_target,
            per_client=list(results),
        )

    async def _run_client(
        self, result: ClientResult, frames: List[bytes]
    ) -> ClientResult:
        group_size = self._frames_per_connection or max(len(frames), 1)
        # All spool I/O runs inline on the event loop, on purpose.
        # Offloading it — asyncio.to_thread, a shared executor, even a
        # dedicated single worker — measurably *halves* fleet throughput
        # at 64 clients here: the moment a second thread issues
        # syscalls, every loop-thread syscall (socket send/recv, epoll)
        # pays a GIL handoff, and sandboxed kernels additionally
        # serialize syscalls across threads.  The lazy ReportSpool keeps
        # the inline cost to a handful of syscalls per client (open,
        # write, fsync, close), which a workload of realistic size
        # amortizes to noise.
        spool = self._open_spool(result.client_id)
        try:
            for group_index, start in enumerate(
                range(0, len(frames), group_size)
            ):
                token = self._token(result.client_id, group_index)
                group_frames = frames[start : start + group_size]
                if spool is not None:
                    committed = spool.committed_groups().get(token)
                    if committed is not None:
                        # A previous incarnation of this client delivered
                        # and committed the group — credit the durable
                        # counts, never resend.
                        result.acked_frames += int(
                            committed.get("frames", 0)
                        )
                        result.acked_reports += int(
                            committed.get("reports", 0)
                        )
                        result.spool_replays += 1
                        _loadgen_counters()[4].labels(
                            outcome="spool_replay"
                        ).inc()
                        address = committed.get("address")
                        if address:
                            result.credit_target(
                                str(address),
                                int(committed.get("frames", 0)),
                                int(committed.get("reports", 0)),
                            )
                        if self._on_group_done is not None:
                            outcome = self._on_group_done(
                                result.client_id, group_index
                            )
                            if inspect.isawaitable(outcome):
                                await outcome
                        continue
                    recorded = spool.frames_for(token)
                    if recorded is not None:
                        # Appended but never committed: the crash landed
                        # mid-delivery.  Replay the *recorded* bytes under
                        # the same idempotency token — the collector
                        # dedupes if the ACK was lost after folding.
                        group_frames = recorded
                        result.spool_replays += 1
                        _loadgen_counters()[4].labels(
                            outcome="spool_replay"
                        ).inc()
                    else:
                        # One inline open+write+fsync, strictly before
                        # the group touches the wire.
                        spool.append_group(token, group_frames)
                delivery = await self._deliver_group(
                    result, group_index, group_frames, token=token
                )
                if spool is not None:
                    # Commit markers are written without a sync (their
                    # loss is replay-safe), so this never blocks on disk.
                    spool.commit_group(token, delivery)
                if self._on_group_done is not None:
                    outcome = self._on_group_done(result.client_id, group_index)
                    if inspect.isawaitable(outcome):
                        await outcome
        finally:
            if spool is not None:
                spool.close()
            for key in [key for key in self._open if key[0] == result.client_id]:
                await self._open.pop(key).close()
        return result

    def _token(self, client_id: int, group_index: int) -> Optional[str]:
        if self._token_prefix is None:
            return None
        return f"{self._token_prefix}/c{client_id}/g{group_index}"

    def _open_spool(self, client_id: int) -> Optional[ReportSpool]:
        if self._spool_dir is None:
            return None
        return ReportSpool(self._spool_dir / f"client-{client_id:04d}.spool")

    async def _deliver_group(
        self,
        result: ClientResult,
        group_index: int,
        frames: List[bytes],
        token: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Deliver one group exactly once, across failures.

        The loop: route, send, and on failure ask the ``failover`` oracle
        about the address.  Three verdicts are possible —

        * not dead (or no oracle): transient failure, retry the same
          address under the :class:`~repro.resilience.RetryPolicy`'s
          backoff schedule until it says stop;
        * dead, our token recovered: the group already counts in the dead
          collector's recovered checkpoint — record the ACK'd totals the
          collector durably wrote, do NOT replay;
        * dead, token not recovered: the group was never acknowledged —
          replay it to a surviving collector (which has never seen this
          token, so no dedupe is needed there).

        Returns the delivery receipt ``{"address", "frames", "reports",
        "recovered"}`` used to commit the group into the client spool.
        """
        if token is None:
            token = self._token(result.client_id, group_index)
        attempts = 0
        # Resolve the target once per group and hold it across transient
        # retries: RoundRobinRouter advances on every route() call (the key
        # is ignored), so routing inside the loop would send a retry after
        # a lost ACK to a collector that has never seen this group's
        # idempotency token — folding the group a second time.  Only a
        # dead verdict (which takes the address out of rotation) picks a
        # new target.
        address = self._router.route(key=(result.client_id, group_index))
        while True:
            try:
                acked_frames, acked_reports = await self._send_group(
                    result, frames, address, token
                )
            except CollectionServiceError:
                verdict = await self._consult_failover(address)
                if verdict.get("dead"):
                    self._router.mark_dead(address)
                    recovered = verdict.get("acked_tokens") or {}
                    if token is not None and token in recovered:
                        recovered_counts = recovered[token]
                        acked_frames = int(
                            recovered_counts.get("frames", 0)
                        )
                        acked_reports = int(
                            recovered_counts.get("reports", 0)
                        )
                        result.acked_frames += acked_frames
                        result.acked_reports += acked_reports
                        result.recovered_groups += 1
                        _loadgen_counters()[4].labels(
                            outcome="recovered"
                        ).inc()
                        target = f"{address[0]}:{address[1]}"
                        result.credit_target(
                            target, acked_frames, acked_reports
                        )
                        return {
                            "address": target,
                            "frames": acked_frames,
                            "reports": acked_reports,
                            "recovered": True,
                        }
                    # Replay to a survivor: new target, fresh attempts.
                    address = self._router.route(
                        key=(result.client_id, group_index)
                    )
                    attempts = 0
                    result.retries += 1
                    _loadgen_counters()[3].inc()
                    continue
                attempts += 1
                if not self._retry_policy.should_retry(attempts):
                    raise
                result.retries += 1
                _loadgen_counters()[3].inc()
                delay = self._retry_policy.delay(attempts)
                if delay > 0:
                    await asyncio.sleep(delay)
            else:
                target = f"{address[0]}:{address[1]}"
                result.credit_target(target, acked_frames, acked_reports)
                return {
                    "address": target,
                    "frames": int(acked_frames),
                    "reports": int(acked_reports),
                    "recovered": False,
                }

    async def _consult_failover(self, address) -> Dict[str, Any]:
        if self._failover is None:
            return {"dead": False}
        verdict = self._failover(address)
        if inspect.isawaitable(verdict):
            verdict = await verdict
        if not isinstance(verdict, dict):
            raise CollectionServiceError(
                f"failover oracle returned {type(verdict).__name__}, "
                "expected a dict verdict"
            )
        return verdict

    async def _send_group(
        self,
        result: ClientResult,
        frames: List[bytes],
        address: Tuple[str, int],
        token: Optional[str] = None,
    ) -> Tuple[int, int]:
        key = (result.client_id, address)
        connection = self._open.pop(key, None)
        if connection is not None and not connection.reusable:
            await connection.close()
            connection = None
        if connection is None:
            connection = await self._connect(address)
            result.connections += 1
        writer = connection.writer
        pipelined = address in self._greeted
        try:
            try:
                with trace.span("loadgen.send_group") as span:
                    span.annotate(frames=len(frames), pipelined=pipelined)
                    hello = self._hello_for(token)
                    if pipelined:
                        run = [hello]
                    else:
                        await self._handshake(writer, connection, hello)
                        self._greeted.add(address)
                        run = []
                    for position, frame in enumerate(frames, start=1):
                        run.append(frame)
                        result.frames += 1
                        result.bytes += len(frame)
                        if position % DRAIN_EVERY == 0:
                            writer.writelines(run)
                            run = []
                            await writer.drain()
                    run.append(encode_control(FIN))
                    writer.writelines(run)
                    await writer.drain()
                    if pipelined:
                        _expect_ok(await connection.next_message())
                    ack = await connection.next_message()
            except (ConnectionError, OSError) as error:
                # Honor the CollectionServiceError contract on the write
                # side too: a server vanishing under writer.drain() must
                # not escape as a raw ConnectionResetError.
                raise CollectionServiceError(
                    f"server dropped the connection mid-session: {error}"
                ) from error
            if ack.kind != ACK:
                raise CollectionServiceError(
                    f"expected ACK after FIN, got {ack.kind}: {ack.payload}"
                )
            acked_frames = int(ack.payload.get("frames", 0))
            if acked_frames != len(frames):
                raise CollectionServiceError(
                    f"server acknowledged {acked_frames} frame(s), "
                    f"client sent {len(frames)}"
                )
            acked_reports = int(ack.payload.get("reports", 0))
            result.acked_frames += acked_frames
            result.acked_reports += acked_reports
            if metrics_enabled():
                frames_c, reports_c, bytes_c, _, groups_c = _loadgen_counters()
                frames_c.inc(acked_frames)
                reports_c.inc(acked_reports)
                bytes_c.inc(sum(len(frame) for frame in frames))
                groups_c.labels(outcome="delivered").inc()
        except BaseException:
            # Only a clean ACK keeps the connection for the next group to
            # this address; any failure closes it.
            self._greeted.discard(address)
            await connection.close()
            raise
        self._open[key] = connection
        return acked_frames, acked_reports

    async def _poison_connection(self, result: ClientResult) -> None:
        """Handshake, then send garbage and expect a per-connection ERR."""
        connection = await self._connect(
            self._router.route(key=("poison", result.client_id))
        )
        result.connections += 1
        try:
            await self._handshake(connection.writer, connection, self._hello)
            try:
                # The canonical bad frame the framing tests also feed the
                # decoders: rejected at the magic bytes, before any payload.
                connection.writer.write(POISON_FRAME)
                await connection.writer.drain()
                message = await connection.next_message()
            except (CollectionServiceError, ConnectionError, OSError):
                # The server dropped the connection without (or while
                # sending) an ERR frame — the rejection still happened.
                message = None
            if message is not None and message.kind != ERR:
                raise CollectionServiceError(
                    f"poison connection expected ERR, got {message.kind}"
                )
            result.rejected_connections += 1
        finally:
            await connection.close()

    def _hello_for(self, token: Optional[str]) -> bytes:
        if token is None:
            return self._hello
        return encode_control(HELLO, {**self._hello_payload, "token": token})

    @staticmethod
    async def _handshake(writer, channel: _Connection, hello: bytes) -> None:
        try:
            writer.write(hello)
            await writer.drain()
        except (ConnectionError, OSError) as error:
            raise CollectionServiceError(
                f"server dropped the connection during the handshake: {error}"
            ) from error
        _expect_ok(await channel.next_message())

    async def _connect(self, address: Tuple[str, int]) -> _Connection:
        """Open one connection, retrying until ``connect_timeout`` passes.

        Retrying covers the CI shape where the fleet starts while the
        server process is still binding its socket — so a collector's
        *first* contact always gets the full ``connect_timeout`` grace
        window, oracle or not.  Once an address has accepted a connection,
        a refusal means the collector died rather than "still binding": a
        dead collector refuses instantly, so post-failure reconnects cap
        the wait at one backoff tick when an oracle is available to
        consult instead.
        """
        host, port = address
        timeout = (
            min(self._connect_timeout, max(self._retry_policy.base_delay, 0.05))
            if self._failover is not None and address in self._contacted
            else self._connect_timeout
        )
        deadline = time.monotonic() + timeout
        while True:
            try:
                reader, writer = await asyncio.open_connection(host, port)
            except OSError as error:
                if time.monotonic() >= deadline:
                    raise CollectionServiceError(
                        f"cannot connect to {host}:{port} within "
                        f"{timeout:.1f}s: {error}"
                    ) from error
                await asyncio.sleep(CONNECT_POLL_SECONDS)
            else:
                self._contacted.add(address)
                return _Connection(reader, writer)
