"""A whole local collection tree in one object, plus its on-disk manifest.

:class:`LocalTopology` wires the pieces together: a
:class:`~.supervisor.TopologySupervisor` running N durable collector
processes, a :class:`~.supervisor.SupervisorEndpoint` exposing the
failover oracle on a socket, and a ``topology.json`` manifest so that
*other* processes (``repro load --topology``, ``repro topo inspect``)
can find every address and the collection contract without sharing
memory with the launcher.  :func:`fan_in` runs the fan-in walk from a
manifest: it pulls each collector and reads one that does not answer from
its durable state through :func:`~repro.server.durable.restore_durable`.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path
from typing import Any, Dict, Union

from ..core.domain import Domain
from ..core.exceptions import CollectionServiceError, ProtocolConfigurationError
from ..resilience.policies import RetryPolicy
from ..service.spec import ProtocolSpec
from .aggregator import FanIn, FanInAggregator, walk
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
        start_timeout: float = 30.0,
    ):
        if routing not in ROUTING_POLICIES:
            raise ProtocolConfigurationError(
                f"unknown routing policy {routing!r}; expected one of "
                f"{list(ROUTING_POLICIES)}"
            )
        self._routing = routing
        self._base_dir = Path(base_dir)
        self._supervisor = TopologySupervisor(
            spec,
            domain,
            collectors=collectors,
            base_dir=self._base_dir,
            host=host,
            shards=shards,
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
        path = self.manifest_path
        # Write-then-rename so a concurrently launched `repro load
        # --topology` never reads a half-written manifest.
        scratch = path.with_suffix(".json.tmp")
        scratch.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        scratch.replace(path)
        return path

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


def fan_in(manifest: Dict[str, Any], *, partial: bool = False) -> FanIn:
    """Fan in every collector of a manifest through :func:`.aggregator.walk`.

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
    return asyncio.run(
        walk(
            aggregator,
            pull=manifest["collectors"],
            partial=partial,
            retry=RetryPolicy(max_retries=2, base_delay=0.2),
        )
    )
