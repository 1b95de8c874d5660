"""Multi-collector fan-in topology over the merge algebra.

The pieces, bottom-up:

* :mod:`~repro.topology.router` — client routing across front-line
  collectors (round-robin or consistent hashing), with dead-collector
  eviction.
* :mod:`~repro.topology.pull` — the ``PULL``/``STATE`` wire client that
  snapshots a collector's merged session without consuming it.
* :mod:`~repro.topology.aggregator` — :class:`FanInAggregator`, one
  snapshot per collector id, merged exactly by the accumulator algebra,
  and :func:`walk`, the one fan-in walk every caller fills it through:
  live collectors over the wire, the rest from disk.
* :mod:`~repro.topology.supervisor` — :class:`TopologySupervisor` spawns
  and health-checks durable collector processes, recovers the last atomic
  checkpoint of a dead one, and answers the failover oracle (also on a
  socket via :class:`SupervisorEndpoint`).
* :mod:`~repro.topology.tree` — :class:`LocalTopology` glues it all
  together and writes the ``topology.json`` manifest other processes use
  to join the tree; :func:`fan_in` runs the fan-in walk from a manifest
  (pull, then durable fallback) behind `repro topo finalize`.

The load generator (:mod:`repro.server.loadgen`) plugs into this layer
through plain parameters — ``targets``, ``routing``, ``failover`` — so
`repro load` can drive a whole tree through one router.
"""

from .aggregator import FanIn, FanInAggregator, walk
from .pull import PulledState, pull_state
from .router import (
    ROUTING_POLICIES,
    ConsistentHashRouter,
    RoundRobinRouter,
    Router,
    make_router,
)
from .supervisor import CollectorHandle, SupervisorEndpoint, TopologySupervisor
from .tree import (
    MANIFEST_FILENAME,
    LocalTopology,
    fan_in,
    load_manifest,
    wait_for_manifest,
)

__all__ = [
    "FanInAggregator",
    "walk",
    "PulledState",
    "pull_state",
    "ROUTING_POLICIES",
    "ConsistentHashRouter",
    "RoundRobinRouter",
    "Router",
    "make_router",
    "CollectorHandle",
    "SupervisorEndpoint",
    "TopologySupervisor",
    "MANIFEST_FILENAME",
    "FanIn",
    "LocalTopology",
    "fan_in",
    "load_manifest",
    "wait_for_manifest",
]
