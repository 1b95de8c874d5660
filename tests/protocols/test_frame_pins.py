"""The client's encoded bytes are pinned: a frame is a function of its
records and seed alone.

Each case encodes the same seeded 2,000-user skewed dataset in 500-user
batches through ``LoadGenerator.frames_for_dataset`` (``run_streaming``'s
per-batch generators) and compares a SHA-256 over every frame with a
recorded digest.  Any change to a client's rng draw order, hash,
perturbation or wire packing moves a digest, so a refactor of the encode
path that passes here sends exactly the bytes it sent before.  The
digests do not depend on the machine's kernel backend: encoding never
runs a decode kernel.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.datasets.synthetic import skewed_dataset
from repro.protocols.registry import available_protocols
from repro.server.loadgen import LoadGenerator
from repro.service.spec import ProtocolSpec

USERS = 2_000
BATCH = 500
SEED = 20_180_610


def _hh(oracle: str) -> ProtocolSpec:
    return ProtocolSpec("HH", 3.0, 2, {"oracle": oracle, "fanout": 4})


#: name -> (spec, record dimension).  HH runs 4-, 8- and 10-bit levels.
CASES = {
    **{
        name: (ProtocolSpec(name, 1.0, 3), 8)
        for name in available_protocols()
        if name != "HH"
    },
    "HH/InpOLH": (_hh("InpOLH"), 10),
    "HH/InpHT": (_hh("InpHT"), 10),
    "HH/InpHTCMS": (_hh("InpHTCMS"), 10),
}

#: name -> SHA-256 of the case's frames, concatenated in batch order.
DIGESTS = {
    "HH/InpHT": "15e76d7d36ae8e01753bfa36639ff6de0a41293ba0ca48249e1a5a13192919a1",
    "HH/InpHTCMS": "c22faf4b66b770912fa1af46ecc2021d3fa7cc69b00393868e3a36ee9ab4b18e",
    "HH/InpOLH": "31a7613e5265eff762f0714f6b3403dd22d2696f10d544fcceaf65c5c043cda2",
    "InpEM": "1c8badf3259c2ea3f1c3f2c41d4a04fed41096352cb7671e0224b12b94697e84",
    "InpHT": "26ce5f95c22aea01a7b758b38d1b3aa011fc7ffac98ba29ac42204d4915a0014",
    "InpHTCMS": "8b0eb5468ed844557a8c8842385bc47cf20835c7603b344a7d39f809059a8201",
    "InpOLH": "c5b3cc77d3381c7d1c4dfafaa9b7a0cba3db8467bd89a1362d15020dde81971b",
    "InpPS": "f319e6e583fcf55eef84eb987ca0c95ec9f2c261b1092dd0d6ac7e334b2d3fcd",
    "InpRR": "636df60d6174289e0b957f36ff832a24911d524c3ec7a8f14cf416791968b757",
    "MargHT": "80ca8dda31dd3aee3ab5790305d6f9bb027da9a5b78318ee3e9a455a84cd6ee9",
    "MargPS": "6aeabb97f1e53a02879acd5ce7d3d1d47a86dd25dd64b6148c2ad0972849e0e5",
    "MargRR": "fe99ce2fa1c40e9baf86726f22f6110a8bd568cd58a6d727317ac85b869b027e",
}


def _digest(spec: ProtocolSpec, dimension: int) -> str:
    dataset = skewed_dataset(USERS, dimension, rng=SEED)
    frames = LoadGenerator.frames_for_dataset(
        spec, dataset, batch_size=BATCH, rng=SEED
    )
    assert len(frames) == USERS // BATCH
    digest = hashlib.sha256()
    for frame in frames:
        digest.update(frame)
    return digest.hexdigest()


def test_every_registered_protocol_and_hh_oracle_is_pinned():
    assert set(CASES) == set(DIGESTS)
    assert {name.split("/")[0] for name in CASES} == set(available_protocols())


@pytest.mark.parametrize("name", sorted(CASES))
def test_frames_are_byte_identical(name):
    spec, dimension = CASES[name]
    assert _digest(spec, dimension) == DIGESTS[name]
