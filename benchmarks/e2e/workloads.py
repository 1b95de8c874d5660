"""The four end-to-end workloads and the inputs each one is built from.

Every input is a pure function of ``(workload, seed)``: the records come from
``default_rng([seed, 0])`` and the client-side encoding from
``default_rng([seed, 1])`` through ``LoadGenerator.frames_for_dataset``, so
the same seed always yields the same frames, byte for byte.  The collectors
only ever see those frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

import numpy as np

from repro.core.domain import Domain
from repro.datasets.synthetic import skewed_dataset, uniform_dataset
from repro.protocols.registry import make_protocol

#: Reports per frame: one client batch, one wire frame.
BATCH_SIZE = 500
#: The load generator's client count (closed loop, one connection each).
CLIENTS = 2
#: Marginal widths released (and scored) on every workload.
RELEASE_WIDTHS = (1, 2)


@dataclass(frozen=True)
class Workload:
    name: str
    protocol: str
    epsilon: float
    dimension: int
    population: int
    #: ``uniform`` fair bits, or ``skewed`` Zipf cells (``skewed_dataset``).
    data: str
    frames_per_connection: int
    #: ``stream``: one in-memory ``CollectionServer``; ``tree``: a
    #: ``TopologySupervisor`` of durable collectors.
    hosting: str
    collectors: int
    shards: int
    #: How strongly this workload's ingest phase follows the calibration
    #: probe: a pass's ingest rate, collector CPU and ACK gaps are quoted at
    #: the reference machine speed by scaling them with
    #: ``(reference / probe) ** speed_exponent``.  Chosen on the
    #: reference host from two batches of ten seeded runs, as the exponent
    #: that kept both the spread within each batch and the drift between
    #: the batches' medians smallest.  The probe is Python bytecode and an
    #: npz parse; the more of a workload's cost sits in numpy kernels, the
    #: less it follows, down to not at all for the InpOLH kernel.
    speed_exponent: float
    options: Dict[str, object] = field(default_factory=dict)

    def protocol_instance(self):
        return make_protocol(
            self.protocol, self.epsilon, max(RELEASE_WIDTHS), **self.options
        )

    def spec(self):
        return self.protocol_instance().spec()

    def domain(self) -> Domain:
        return Domain.binary(self.dimension)

    def dataset(self, seed: int):
        rng = np.random.default_rng([seed, 0])
        if self.data == "skewed":
            return skewed_dataset(self.population, self.dimension, rng=rng)
        return uniform_dataset(self.population, self.dimension, rng=rng)

    def encode_rng(self, seed: int):
        return np.random.default_rng([seed, 1])

    @property
    def frames(self) -> int:
        return math.ceil(self.population / BATCH_SIZE)

    @property
    def groups(self) -> int:
        """Connection groups per pass (frames are dealt round-robin)."""
        per_client = [
            len(range(client, self.frames, CLIENTS)) for client in range(CLIENTS)
        ]
        return sum(
            math.ceil(count / self.frames_per_connection) for count in per_client
        )


LN3 = math.log(3.0)

WORKLOADS: Tuple[Workload, ...] = (
    # Cheap InpRR vector-sum fold: per-frame framing, npz decode, micro-batch
    # flush and the event loop dominate, so wire changes show here.
    Workload(
        name="rr-stream",
        protocol="InpRR",
        epsilon=LN3,
        dimension=8,
        population=2_000_000,
        data="uniform",
        frames_per_connection=400,
        hosting="stream",
        collectors=1,
        shards=2,
        speed_exponent=0.85,
    ),
    # The O(N*2^d) InpOLH support_counts kernel dominates: the control that
    # wire and framing changes should barely move.
    Workload(
        name="olh-stream",
        protocol="InpOLH",
        epsilon=LN3,
        dimension=8,
        population=400_000,
        data="uniform",
        frames_per_connection=400,
        hosting="stream",
        collectors=1,
        shards=2,
        speed_exponent=0.0,
    ),
    # 4-frame groups into a durable tree: handshake, state.npz commit with
    # fsync and ACK dominate each group.
    Workload(
        name="rr-tree",
        protocol="InpRR",
        epsilon=LN3,
        dimension=8,
        population=1_000_000,
        data="uniform",
        frames_per_connection=4,
        hosting="tree",
        collectors=3,
        shards=1,
        speed_exponent=0.5,
    ),
    # Skewed heavy-hitter input, the largest per-level state and commits,
    # and the only release that runs the discovery walk.
    Workload(
        name="hh-tree",
        protocol="HH",
        epsilon=3.0,
        dimension=10,
        population=200_000,
        data="skewed",
        frames_per_connection=4,
        hosting="tree",
        collectors=3,
        shards=1,
        speed_exponent=0.6,
        options={"oracle": "InpOLH", "fanout": 4, "top_k": 6},
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


def tiny(workload: Workload) -> Workload:
    """The smoke-test size of a workload: same shape, a few groups."""
    return replace(
        workload,
        population=min(workload.population, 6_000),
        frames_per_connection=min(workload.frames_per_connection, 3),
    )
