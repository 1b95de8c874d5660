"""Shared helpers for the collection-service test suites."""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from typing import Dict, List, Tuple

import numpy as np

from repro.core.privacy import PrivacyBudget
from repro.core.rng import spawn_rngs
from repro.datasets import BinaryDataset
from repro.protocols.registry import PROTOCOL_CLASSES, make_protocol
from repro.protocols.wire import WIRE_FORMAT_VERSION

LN3 = float(np.log(3.0))

#: Smaller sketch so the InpHTCMS cases stay fast at test scale.
PROTOCOL_OPTIONS = {"InpHTCMS": {"num_hashes": 3, "width": 32}}

ALL_PROTOCOLS = sorted(PROTOCOL_CLASSES)

SEED = 20180610


def build(name: str, epsilon: float = LN3, width: int = 2):
    options = PROTOCOL_OPTIONS.get(name, {})
    return make_protocol(name, PrivacyBudget(epsilon), width, **options)


def small_dataset(n: int = 96, d: int = 4, seed: int = 97) -> BinaryDataset:
    rng = np.random.default_rng(seed)
    marginal_probs = rng.random(d) * 0.6 + 0.2
    records = (rng.random((n, d)) < marginal_probs).astype(np.int8)
    return BinaryDataset.from_records(records)


def streaming_rngs(seed: int, num_batches: int) -> List:
    """The exact per-batch generators ``run_streaming(rng=default_rng(seed))``
    uses, so wire-path estimates can be compared bit-for-bit against it."""
    generator = np.random.default_rng(seed)
    if num_batches == 1:
        return [generator]
    return spawn_rngs(generator, num_batches)


def encode_batches(protocol, dataset, batch_size, seed=SEED) -> List:
    """Client-side: the in-memory report batches of a streaming run."""
    rngs = streaming_rngs(seed, dataset.num_batches(batch_size))
    return [
        protocol.encode_batch(chunk, rng=chunk_rng)
        for chunk, chunk_rng in zip(dataset.iter_batches(batch_size), rngs)
    ]


def encode_frames(protocol, dataset, batch_size, seed=SEED) -> List[bytes]:
    """Client-side: the same batches in their serialized wire form."""
    return [
        reports.to_bytes()
        for reports in encode_batches(protocol, dataset, batch_size, seed)
    ]


def forge_frame(kind: str, body: bytes, version: int = WIRE_FORMAT_VERSION) -> bytes:
    """A report frame around an arbitrary payload body, with a valid CRC-32.

    Lets a test hand the decoder hostile descriptors, shapes or scalars
    that get past the transport checks and the CRC.
    """
    name = kind.encode("utf-8")
    frame = (
        struct.pack("<4sHH", b"RPRB", version, len(name))
        + name
        + struct.pack("<Q", len(body) + 4)
        + body
    )
    return frame + struct.pack("<I", zlib.crc32(frame))


def payload_body(frame: bytes) -> bytes:
    """The payload of a frame minus its trailing CRC-32 (inverse of
    :func:`forge_frame`)."""
    (kind_length,) = struct.unpack_from("<H", frame, 6)
    return frame[16 + kind_length : -4]


def split_checkpoint(blob: bytes) -> Tuple[dict, bytes]:
    """A checkpoint's JSON header and the state bytes after it, trailer
    dropped (inverse of :func:`seal_checkpoint`)."""
    (header_length,) = struct.unpack_from("<I", blob, 6)
    header = json.loads(blob[10 : 10 + header_length])
    return header, blob[10 + header_length : -32]


def seal_checkpoint(header: dict, state: bytes, version: int = 3) -> bytes:
    """A checkpoint of ``header`` and ``state`` bytes under a valid SHA-256
    trailer, so hostile headers and tables get past the integrity check."""
    text = json.dumps(header).encode("utf-8")
    body = struct.pack("<4sHI", b"RPRC", version, len(text)) + text + state
    return body + hashlib.sha256(body).digest()


def estimates_of(estimator) -> Dict[int, np.ndarray]:
    return {beta: table.values for beta, table in estimator.query_all().items()}


def assert_estimates_equal(observed, expected):
    assert observed.keys() == expected.keys()
    for beta in expected:
        np.testing.assert_array_equal(observed[beta], expected[beta])
