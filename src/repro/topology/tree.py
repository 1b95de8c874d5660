"""A whole local collection tree in one object, plus its on-disk manifest.

:class:`LocalTopology` wires the pieces together: a
:class:`~.supervisor.TopologySupervisor` running N durable collector
processes, a :class:`~.supervisor.SupervisorEndpoint` exposing the
failover oracle on a socket, and a ``topology.json`` manifest so that
*other* processes (``repro load --topology``, ``repro topo inspect``)
can find every address and the collection contract without sharing
memory with the launcher.  :func:`fan_in` is the cross-process fan-in walk:
it pulls each collector and reads one that does not answer from its
durable state through :func:`~repro.server.durable.restore_durable`.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..core.domain import Domain
from ..core.exceptions import (
    CollectionServiceError,
    ProtocolConfigurationError,
    ReproError,
    WireFormatError,
)
from ..resilience.coverage import STATUS_RECOVERED
from ..resilience.policies import ResilienceConfig, RetryPolicy
from ..server.durable import restore_durable
from ..service.spec import ProtocolSpec
from .aggregator import FanInAggregator
from .router import ROUTING_POLICIES
from .supervisor import SupervisorEndpoint, TopologySupervisor

__all__ = [
    "MANIFEST_FILENAME",
    "MANIFEST_FORMAT_VERSION",
    "LocalTopology",
    "load_manifest",
    "wait_for_manifest",
]

PathLike = Union[str, Path]

MANIFEST_FILENAME = "topology.json"
MANIFEST_FORMAT_VERSION = 1


class LocalTopology:
    """Supervisor + wire oracle + manifest for one local collection tree."""

    def __init__(
        self,
        spec,
        domain: Domain,
        *,
        base_dir: PathLike,
        collectors: int = 3,
        shards: int = 1,
        routing: str = "round-robin",
        host: str = "127.0.0.1",
        checkpoint_interval: Optional[float] = None,
        start_timeout: float = 30.0,
        resilience: Optional[ResilienceConfig] = None,
    ):
        if routing not in ROUTING_POLICIES:
            raise ProtocolConfigurationError(
                f"unknown routing policy {routing!r}; expected one of "
                f"{list(ROUTING_POLICIES)}"
            )
        if resilience is not None and not isinstance(
            resilience, ResilienceConfig
        ):
            raise ProtocolConfigurationError(
                f"resilience must be a ResilienceConfig, "
                f"got {type(resilience).__name__}"
            )
        self._routing = routing
        self._resilience = resilience
        self._base_dir = Path(base_dir)
        self._supervisor = TopologySupervisor(
            spec,
            domain,
            collectors=collectors,
            base_dir=self._base_dir,
            host=host,
            shards=shards,
            checkpoint_interval=checkpoint_interval,
            start_timeout=start_timeout,
        )
        self._endpoint = SupervisorEndpoint(self._supervisor, host=host)
        self._started = False

    # ------------------------------------------------------------------ #

    @property
    def supervisor(self) -> TopologySupervisor:
        return self._supervisor

    @property
    def endpoint(self) -> SupervisorEndpoint:
        return self._endpoint

    @property
    def routing(self) -> str:
        return self._routing

    @property
    def resilience(self) -> Optional[ResilienceConfig]:
        """The retry/timeout/breaker policies published in the manifest."""
        return self._resilience

    @property
    def base_dir(self) -> Path:
        return self._base_dir

    @property
    def manifest_path(self) -> Path:
        return self._base_dir / MANIFEST_FILENAME

    @property
    def addresses(self):
        return self._supervisor.addresses

    # ------------------------------------------------------------------ #

    async def start(self) -> "LocalTopology":
        """Spawn the collectors, open the oracle, write the manifest."""
        if self._started:
            raise ProtocolConfigurationError(
                "the topology is already started"
            )
        self._base_dir.mkdir(parents=True, exist_ok=True)
        self._supervisor.start()
        await self._endpoint.start()
        self.write_manifest()
        self._started = True
        return self

    def write_manifest(self) -> Path:
        supervisor = self._supervisor
        manifest = {
            "format_version": MANIFEST_FORMAT_VERSION,
            "spec": supervisor.spec.to_dict(),
            "attributes": list(supervisor.domain.attributes),
            "routing": self._routing,
            "supervisor": {
                "host": self._endpoint.host,
                "port": self._endpoint.port,
            },
            "collectors": supervisor.describe(),
        }
        if self._resilience is not None:
            # Published so `repro load --topology` clients pick up the
            # tree's retry/timeout/breaker policies without extra flags.
            manifest["resilience"] = self._resilience.to_dict()
        path = self.manifest_path
        # Write-then-rename so a concurrently launched `repro load
        # --topology` never reads a half-written manifest.
        scratch = path.with_suffix(".json.tmp")
        scratch.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        scratch.replace(path)
        return path

    async def collect(self, *, timeout: float = 15.0) -> FanInAggregator:
        """Fan in: live collectors over the wire, dead ones from disk."""
        return await self._supervisor.collect(timeout=timeout)

    async def stop(self) -> None:
        await self._endpoint.stop()
        self._supervisor.shutdown()


# ---------------------------------------------------------------------- #
# manifest readers (the cross-process side)


def load_manifest(directory: PathLike) -> Dict[str, Any]:
    """Read and validate a ``topology.json`` written by `repro topo`."""
    directory = Path(directory)
    path = (
        directory / MANIFEST_FILENAME
        if directory.is_dir() or directory.suffix != ".json"
        else directory
    )
    if not path.exists():
        raise CollectionServiceError(
            f"no topology manifest at {path}; launch one first with "
            f"`repro topo launch --dir {directory}`"
        )
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise CollectionServiceError(
            f"cannot read topology manifest {path}: {error}"
        ) from error
    if not isinstance(manifest, dict):
        raise CollectionServiceError(
            f"topology manifest {path} is not a JSON object"
        )
    version = manifest.get("format_version")
    if version != MANIFEST_FORMAT_VERSION:
        raise CollectionServiceError(
            f"topology manifest {path} has format_version {version!r}; "
            f"this build reads version {MANIFEST_FORMAT_VERSION}"
        )
    for key in ("spec", "attributes", "routing", "collectors"):
        if key not in manifest:
            raise CollectionServiceError(
                f"topology manifest {path} is missing the {key!r} field"
            )
    # Fail here, not deep inside a client, if the contract is garbage.
    ProtocolSpec.from_dict(manifest["spec"])
    return manifest


def wait_for_manifest(
    directory: PathLike, *, timeout: float = 30.0, poll: float = 0.1
) -> Dict[str, Any]:
    """Poll for a manifest — lets a load generator start before (or while)
    `repro topo launch` is still binding its collectors."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return load_manifest(directory)
        except CollectionServiceError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(poll)


@dataclass
class FanIn:
    """What :func:`fan_in` gathered from a tree's collectors."""

    aggregator: FanInAggregator
    #: Collector ids that did not answer their ``PULL``.
    unreachable: List[str] = field(default_factory=list)
    #: Partial mode only: collector id -> why its reports are gone.
    lost: Dict[str, str] = field(default_factory=dict)
    #: Collector id -> coverage status (``recovered`` from durable state).
    statuses: Dict[str, str] = field(default_factory=dict)
    #: One readable line per collector that needed the fallback.
    notes: List[str] = field(default_factory=list)


def fan_in(manifest: Dict[str, Any], *, partial: bool = False) -> FanIn:
    """Pull every collector of a manifest, falling back to its disk state.

    Each collector is pulled over the wire (with a short retry); one that
    does not answer is read from its durable state — the ``state.npz``
    snapshot with its commit log replayed, through
    :func:`~repro.server.durable.restore_durable`.  Strict mode (the
    default) raises when such a collector left no state, or a state that
    fails restore, leaving the files in place.  ``partial=True`` records
    those collectors in :attr:`FanIn.lost` instead, quarantining a state
    that fails verification, so the caller can report the loss.
    """
    aggregator = FanInAggregator(
        ProtocolSpec.from_dict(manifest["spec"]), Domain(manifest["attributes"])
    )
    result = FanIn(aggregator)
    retry = RetryPolicy(max_retries=2, base_delay=0.2, max_delay=1.0)
    fallbacks = []

    async def gather() -> None:
        for entry in manifest["collectors"]:
            try:
                await aggregator.pull(
                    entry["host"], int(entry["port"]), timeout=5.0, retry=retry
                )
            except ReproError:
                fallbacks.append(entry)

    asyncio.run(gather())
    for entry in fallbacks:
        collector_id = entry["collector_id"]
        result.unreachable.append(collector_id)
        directory = Path(entry["checkpoint_dir"])
        try:
            session = restore_durable(directory, quarantine=partial)
        except WireFormatError as error:
            if not partial:
                raise
            result.lost[collector_id] = f"checkpoint quarantined: {error}"
            result.notes.append(
                f"collector {collector_id} is unreachable and its durable "
                f"state failed verification; quarantined in {directory}"
            )
            continue
        if session is None:
            reason = f"unreachable and left no durable state in {directory}"
            if not partial:
                raise CollectionServiceError(f"collector {collector_id} is {reason}")
            result.lost[collector_id] = reason
            result.notes.append(
                f"collector {collector_id} is {reason}; counting it as empty"
            )
            continue
        aggregator.ingest_session(
            collector_id, session, session.checkpoint_extra["acked_tokens"]
        )
        result.statuses[collector_id] = STATUS_RECOVERED
        result.notes.append(
            f"collector {collector_id} is unreachable; recovered "
            f"{session.num_reports} report(s) from {directory}"
        )
    return result
