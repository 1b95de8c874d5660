"""A reusable fault-injection harness for multi-collector topologies.

The scenarios the topology suites need — kill a collector at an exact
point mid-stream, restart it, drop or duplicate checkpoint pulls — are all
expressed against this one helper so each test reads as a scenario, not a
pile of process plumbing:

* :func:`spawn_tree` — a context manager owning a durable
  :class:`~repro.topology.TopologySupervisor` (always shut down, even on
  assertion failure);
* :class:`KillPlan` — "SIGKILL collector *I* the moment client *C*
  finishes group *G*", hooked into the load generator's ``on_group_done``
  so the injection point is deterministic, not time-based;
* :func:`drive_fleet` — run a token-carrying client fleet through the
  tree with the supervisor as failover oracle;
* :func:`collect_with_pull_faults` — fan the tree in while *duplicating*
  every pull and *dropping* (discarding) the first answer, proving pulls
  are idempotent snapshot reads;
* :func:`flat_estimates` — the ``run_streaming`` ground truth the tree
  must match bit-for-bit.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.domain import Domain
from repro.server.loadgen import LoadGenerator, LoadReport
from repro.topology import FanInAggregator, TopologySupervisor

from ..service.util import SEED, estimates_of

__all__ = [
    "KillPlan",
    "spawn_tree",
    "drive_fleet",
    "collect_with_pull_faults",
    "flat_estimates",
]


@dataclass
class KillPlan:
    """SIGKILL collector ``collector_index`` right after client
    ``client_id`` delivers group ``group_index``."""

    collector_index: int
    client_id: int = 0
    group_index: int = 0


@contextmanager
def spawn_tree(
    protocol,
    domain: Domain,
    base_dir,
    *,
    collectors: int = 3,
    shards: int = 1,
):
    """A running durable collector tree, shut down no matter what."""
    supervisor = TopologySupervisor(
        protocol.spec(),
        domain,
        collectors=collectors,
        shards=shards,
        base_dir=base_dir,
    )
    supervisor.start()
    try:
        yield supervisor
    finally:
        supervisor.shutdown()


async def drive_fleet(
    supervisor: TopologySupervisor,
    protocol,
    domain: Domain,
    frames: List[bytes],
    *,
    num_clients: int = 1,
    routing: str = "round-robin",
    token_prefix: str = "harness",
    kill: Optional[KillPlan] = None,
    on_group_done=None,
    **fleet_kwargs,
) -> LoadReport:
    """Run a fleet through the tree; optionally kill per the plan.

    One frame per group, so with the default single client the
    router's dealing order — and therefore which groups hit the doomed
    collector — is fully deterministic.  Extra ``fleet_kwargs`` go to the
    :class:`LoadGenerator` constructor (the chaos suite passes
    ``spool_dir``/``retry`` through here), and a caller's
    ``on_group_done`` hook composes with the kill plan — the kill fires
    first, then the hook.
    """
    state = {"killed": False}
    caller_hook = on_group_done

    def hook(client_id: int, group_index: int):
        if (
            kill is not None
            and not state["killed"]
            and client_id == kill.client_id
            and group_index == kill.group_index
        ):
            state["killed"] = True
            supervisor.kill(kill.collector_index)
        if caller_hook is not None:
            return caller_hook(client_id, group_index)
        return None

    generator = LoadGenerator(
        protocol.spec(),
        domain,
        targets=list(supervisor.addresses),
        routing=routing,
        token_prefix=token_prefix,
        failover=supervisor.failover,
        frames=frames,
        num_clients=num_clients,
        frames_per_connection=1,
        on_group_done=(
            hook if (kill is not None or caller_hook is not None) else None
        ),
        **fleet_kwargs,
    )
    report = await generator.run()
    if kill is not None:
        assert state["killed"], "the kill plan never triggered"
    return report


async def collect_with_pull_faults(supervisor: TopologySupervisor):
    """Fan in with dropped AND duplicated pulls; returns the aggregator.

    Every live collector is pulled twice — the first snapshot is thrown
    away (a *dropped* answer, repaired by re-pulling) and the second is
    ingested twice (a *duplicated* answer, absorbed by last-write-wins) —
    so the merge is only exact if pulls are idempotent snapshot reads.
    """
    supervisor.health_check()
    aggregator = FanInAggregator(supervisor.spec, supervisor.domain)
    for handle in supervisor.handles:
        if handle.status != "live":
            continue
        dropped = await aggregator.pull(handle.host, handle.port)
        aggregator.discard(dropped.collector_id)  # the "lost" answer
        duplicate = await aggregator.pull(handle.host, handle.port)
        aggregator.ingest(duplicate)  # the duplicated answer, again
    for collector_id, state in supervisor.recovered_states().items():
        if collector_id not in aggregator.collector_ids:
            aggregator.ingest(state)
    return aggregator


def flat_estimates(protocol, dataset, batch_size, seed: int = SEED):
    """The ``run_streaming`` ground truth for a framed dataset."""
    estimator = protocol.run_streaming(
        dataset, np.random.default_rng(seed), batch_size=batch_size
    )
    return estimates_of(estimator)
