"""Checkpoint decoder fuzzing: hostile checkpoint bytes end in an error.

For the nine protocols and HH, every truncation, every extension and
every single-byte flip of a valid version-3 checkpoint must raise
:class:`WireFormatError` — never another exception, and never a silent
restore.  A flip past the magic and version (the header length, the JSON
header, the state arrays or the trailer itself) must be caught by the
SHA-256 trailer, as :class:`CheckpointIntegrityError`.  The trailer is
not keyed, so forged array tables are also resealed and must still end in
:class:`WireFormatError`.  A durable
:class:`CollectionServer` started on such a ``state.npz`` quarantines it
and starts empty.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.exceptions import CheckpointIntegrityError, WireFormatError
from repro.server import DURABLE_STATE_FILENAME, CollectionServer
from repro.service import AggregationSession

from .util import (
    ALL_PROTOCOLS,
    build,
    encode_frames,
    seal_checkpoint,
    small_dataset,
    split_checkpoint,
)

FUZZ = settings(max_examples=150, deadline=None)

#: Bytes of magic and version; a flip anywhere after them is the trailer's.
PREFIX_CHECKED_BYTES = 6

protocols = st.sampled_from(ALL_PROTOCOLS)


@functools.lru_cache(maxsize=None)
def valid_checkpoint(name: str) -> bytes:
    """A small real checkpoint of ``name``, token map included."""
    protocol = build(name)
    dataset = small_dataset(n=24, d=4)
    session = AggregationSession(protocol.spec(), dataset.domain)
    for frame in encode_frames(protocol, dataset, 12):
        session.submit(frame)
    return session.checkpoint_bytes(
        extra={"collector_id": "c0", "acked_tokens": {"t-1": {"reports": 12}}}
    )


def refuse(data: bytes) -> WireFormatError:
    """Restore ``data``; it must fail with a ``WireFormatError``."""
    with pytest.raises(WireFormatError) as excinfo:
        AggregationSession.restore_bytes(data)
    return excinfo.value


class TestMutatedCheckpoints:
    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_the_pristine_checkpoint_restores(self, name):
        restored = AggregationSession.restore_bytes(valid_checkpoint(name))
        assert restored.checkpoint_extra["collector_id"] == "c0"

    @FUZZ
    @given(name=protocols, data=st.data())
    def test_every_truncation_is_refused(self, name, data):
        blob = valid_checkpoint(name)
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        refuse(blob[:cut])

    @FUZZ
    @given(name=protocols, tail=st.binary(min_size=1, max_size=64))
    def test_every_extension_is_refused(self, name, tail):
        refuse(valid_checkpoint(name) + tail)

    @FUZZ
    @given(name=protocols, data=st.data(), mask=st.integers(1, 255))
    def test_every_single_byte_flip_is_refused(self, name, data, mask):
        blob = bytearray(valid_checkpoint(name))
        offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
        blob[offset] ^= mask
        error = refuse(bytes(blob))
        if offset >= PREFIX_CHECKED_BYTES:
            assert isinstance(error, CheckpointIntegrityError)

    @pytest.mark.parametrize("name", ["InpRR", "HH"])
    def test_exhaustive_bit_flips(self, name):
        """Every bit of two real checkpoints, not just a sample."""
        blob = valid_checkpoint(name)
        for offset in range(len(blob)):
            for bit in range(8):
                mutated = bytearray(blob)
                mutated[offset] ^= 1 << bit
                error = refuse(bytes(mutated))
                if offset >= PREFIX_CHECKED_BYTES:
                    assert isinstance(error, CheckpointIntegrityError)


class TestForgedArrayTables:
    """A forger who reseals the trailer gets past the integrity check; the
    array table must still refuse anything it cannot map onto the bytes."""

    @FUZZ
    @given(
        name=protocols,
        data=st.data(),
        dtype=st.sampled_from(["<i8", "<f8", "|u1", "|b1", "|O", "<U4", "V8"]),
        shape=st.lists(st.integers(0, 1 << 72), max_size=70),
    )
    def test_a_forged_entry_is_refused_or_restores(self, name, data, dtype, shape):
        header, state = split_checkpoint(valid_checkpoint(name))
        index = data.draw(st.integers(0, len(header["arrays"])), label="index")
        entry = [f"forged-{index}", dtype, shape]
        if index < len(header["arrays"]):
            entry[0] = header["arrays"][index][0]
            header["arrays"][index] = entry
        else:
            header["arrays"].append(entry)
        try:
            AggregationSession.restore_bytes(seal_checkpoint(header, state))
        except WireFormatError:
            pass


mutations = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 1 << 16)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("flip"), st.integers(0, 1 << 16)),
)


def mutate(blob: bytes, mutation) -> bytes:
    kind, argument = mutation
    if kind == "truncate":
        return blob[: argument % len(blob)]
    if kind == "extend":
        return blob + argument
    flipped = bytearray(blob)
    flipped[argument % len(blob)] ^= 0xFF
    return bytes(flipped)


class TestDurableStartup:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(mutation=mutations)
    def test_a_mutated_state_file_is_quarantined_and_the_server_starts_empty(
        self, tmp_path_factory, mutation
    ):
        protocol = build("InpRR")
        directory = tmp_path_factory.mktemp("durable")
        state = directory / DURABLE_STATE_FILENAME
        state.write_bytes(mutate(valid_checkpoint("InpRR"), mutation))
        server = CollectionServer(
            protocol.spec(),
            small_dataset(n=24, d=4).domain,
            checkpoint_dir=directory,
        )
        assert server.stats()["reports"] == 0
        assert server.stats()["acked_groups"] == 0
        assert not state.exists()
        quarantined = list(directory.glob(DURABLE_STATE_FILENAME + ".corrupt*"))
        assert any(path.name.endswith(".report.txt") for path in quarantined)
        assert any(not path.name.endswith(".txt") for path in quarantined)
        # The collector is usable: its first commit writes a fresh state.
        server.checkpoint()
        assert AggregationSession.restore(state).num_reports == 0
