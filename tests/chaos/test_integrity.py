"""Checkpoint integrity under corruption: detect, refuse, quarantine.

The property at the heart of the suite: for *every* protocol, flipping a
single random bit inside any state array of a saved checkpoint — with
the header and layout left valid — is detected by the SHA-256 trailer,
the restore refuses, and the file is quarantined with a readable report.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import (
    CheckpointIntegrityError,
    WireFormatError,
)
from repro.resilience.integrity import quarantine_checkpoint, verify_integrity
from repro.service import AggregationSession
from repro.service.session import parse_checkpoint

from ..service.util import ALL_PROTOCOLS, build, encode_frames, small_dataset
from .injectors import corrupt_checkpoint_array, flip_file_bit

SEED = 20180608


@pytest.fixture(scope="module")
def dataset():
    return small_dataset()


def checkpointed_session(protocol_name, dataset, path):
    protocol = build(protocol_name)
    session = AggregationSession(protocol.spec(), dataset.domain)
    for frame in encode_frames(protocol, dataset, 48):
        session.submit(frame)
    session.checkpoint(path)
    return session


class TestBitFlipProperty:
    @pytest.mark.parametrize("protocol_name", ALL_PROTOCOLS)
    def test_one_flipped_array_byte_is_detected_and_quarantined(
        self, protocol_name, dataset, tmp_path
    ):
        """One random byte per state array, every protocol, every time."""
        path = tmp_path / "checkpoint.npz"
        checkpointed_session(protocol_name, dataset, path)
        pristine = path.read_bytes()
        _, state = parse_checkpoint(pristine)
        array_names = list(state)
        assert array_names, f"{protocol_name} checkpoint holds no state"
        rng = np.random.default_rng(SEED + len(protocol_name))
        for array_name in array_names:
            path.write_bytes(pristine)
            damaged = corrupt_checkpoint_array(path, array_name, rng)
            assert damaged == array_name
            # Header and layout stay valid: only the trailer can object.
            with pytest.raises(
                CheckpointIntegrityError, match="failed integrity"
            ):
                AggregationSession.restore(path)
            quarantined, report = quarantine_checkpoint(
                path, f"chaos test flipped a byte in {array_name}"
            )
            assert quarantined is not None and quarantined.exists()
            assert not path.exists()
            text = report.read_text()
            assert str(path) in text
            assert array_name in text

    def test_corruption_lands_in_the_named_array_only(self, dataset, tmp_path):
        """One bit changes, inside the array's own bytes; the header and
        the SHA-256 trailer are left exactly as written."""
        path = tmp_path / "checkpoint.npz"
        checkpointed_session("MargHT", dataset, path)
        pristine = path.read_bytes()
        _, state = parse_checkpoint(pristine)
        # The arrays end where the 32-byte trailer starts.
        start = len(pristine) - 32 - sum(a.nbytes for a in state.values())
        rng = np.random.default_rng(SEED)
        for name, array in state.items():
            path.write_bytes(pristine)
            assert corrupt_checkpoint_array(path, name, rng) == name
            damaged = path.read_bytes()
            changed = [
                index
                for index, (old, new) in enumerate(zip(pristine, damaged))
                if old != new
            ]
            assert len(damaged) == len(pristine) and len(changed) == 1
            assert start <= changed[0] < start + array.nbytes
            assert bin(pristine[changed[0]] ^ damaged[changed[0]]).count("1") == 1
            start += array.nbytes

    def test_raw_media_bit_flip_never_yields_silent_garbage(
        self, dataset, tmp_path
    ):
        """A flip anywhere in the file is refused: in the magic or version
        by the prefix check, anywhere else by the SHA-256 trailer.  The
        layout has no redundant bytes a flip could hide in."""
        path = tmp_path / "checkpoint.npz"
        checkpointed_session("InpRR", dataset, path)
        rng = np.random.default_rng(SEED)
        pristine = path.read_bytes()
        for trial in range(16):
            path.write_bytes(pristine)
            flip_file_bit(path, rng)
            with pytest.raises(WireFormatError):
                AggregationSession.restore(path)

    def test_pristine_checkpoint_still_restores_exactly(
        self, dataset, tmp_path
    ):
        path = tmp_path / "checkpoint.npz"
        session = checkpointed_session("MargPS", dataset, path)
        restored = AggregationSession.restore(path)
        assert restored.num_reports == session.num_reports


class TestReadableErrors:
    def test_zero_byte_checkpoint_names_the_path(self, tmp_path):
        path = tmp_path / "state.npz"
        path.write_bytes(b"")
        with pytest.raises(WireFormatError, match="zero bytes") as excinfo:
            AggregationSession.restore(path)
        assert str(path) in str(excinfo.value)


class TestDigestPrimitives:
    def test_a_sealed_checkpoint_verifies(self, dataset):
        protocol = build("InpRR")
        session = AggregationSession(protocol.spec(), dataset.domain)
        assert verify_integrity(session.checkpoint_bytes(), source="t") is None

    def test_header_tampering_is_also_detected(self, dataset):
        protocol = build("InpRR")
        session = AggregationSession(protocol.spec(), dataset.domain)
        blob = bytearray(session.checkpoint_bytes())
        blob[12] ^= 0x01  # inside the JSON header, which starts at byte 10
        with pytest.raises(CheckpointIntegrityError, match="altered"):
            verify_integrity(bytes(blob), source="t")

    def test_a_cut_trailer_is_detected(self, dataset):
        protocol = build("InpRR")
        session = AggregationSession(protocol.spec(), dataset.domain)
        with pytest.raises(CheckpointIntegrityError, match="truncated"):
            verify_integrity(session.checkpoint_bytes()[:-1], source="t")

    def test_quarantine_collisions_get_numeric_suffixes(self, tmp_path):
        first = tmp_path / "state.npz"
        first.write_bytes(b"junk")
        quarantined_1, _ = quarantine_checkpoint(first, "one")
        first.write_bytes(b"junk again")
        quarantined_2, _ = quarantine_checkpoint(first, "two")
        assert quarantined_1 != quarantined_2
        assert quarantined_1.exists() and quarantined_2.exists()
