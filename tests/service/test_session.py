"""AggregationSession: submit, snapshot, merge, checkpoint/restore.

The acceptance bar: for every protocol, ``checkpoint()`` mid-stream followed
by ``restore()`` resumes to estimates bit-for-bit identical to the
uninterrupted run — proven as a protocol x executor matrix in-process and,
for every protocol, across a real process boundary (a fresh interpreter
restores the checkpoint and finishes the aggregation).
"""

from __future__ import annotations

import hashlib
import json
import os
import stat
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.domain import Domain
from repro.core.exceptions import (
    AggregationError,
    ProtocolConfigurationError,
    WireFormatError,
)
from repro.execution import available_executors, make_executor
from repro.service import AggregationSession, ProtocolSpec
from repro.service.session import parse_checkpoint

from .util import (
    ALL_PROTOCOLS,
    SEED,
    assert_estimates_equal,
    build,
    encode_batches,
    encode_frames,
    estimates_of,
    seal_checkpoint,
    small_dataset,
    split_checkpoint,
)

BATCH_SIZE = 24  # 96 records -> 4 batches; checkpoint after the first 2


@pytest.fixture(scope="module")
def dataset():
    return small_dataset()


@pytest.fixture(scope="module")
def executors():
    cache = {}
    yield lambda name: cache.setdefault(name, make_executor(name, 2))
    for executor in cache.values():
        executor.close()


class TestSubmit:
    def test_in_memory_and_wire_submissions_agree(self, dataset):
        protocol = build("InpHT")
        batches = encode_batches(protocol, dataset, BATCH_SIZE)
        in_memory = AggregationSession(protocol.spec(), dataset.domain)
        wire = AggregationSession(protocol.spec(), dataset.domain)
        for reports in batches:
            in_memory.submit(reports)
            wire.submit(reports.to_bytes())
        assert_estimates_equal(
            estimates_of(wire.snapshot()), estimates_of(in_memory.snapshot())
        )
        assert wire.num_reports == in_memory.num_reports == dataset.size

    def test_submit_rejects_foreign_frames(self, dataset):
        session = build("InpHT").session(dataset.domain)
        foreign = encode_frames(build("MargPS"), dataset, None)[0]
        with pytest.raises(WireFormatError, match="expected 'InpHT'"):
            session.submit(foreign)
        assert session.num_reports == 0

    def test_wire_metadata_counters(self, dataset):
        protocol = build("InpPS")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        session = AggregationSession(protocol.spec(), dataset.domain)
        for frame in frames:
            session.submit(frame)
        metadata = session.metadata
        assert metadata["wire_batches"] == len(frames)
        assert metadata["wire_reports"] == dataset.size
        assert metadata["wire_bytes_total"] == sum(len(f) for f in frames)
        assert metadata["wire_bytes_per_report"] == pytest.approx(
            sum(len(f) for f in frames) / dataset.size
        )

    def test_session_requires_spec_or_protocol(self, dataset):
        with pytest.raises(ProtocolConfigurationError):
            AggregationSession("InpHT", dataset.domain)
        with pytest.raises(ProtocolConfigurationError):
            AggregationSession(build("InpHT").spec(), "not a domain")

    def test_protocol_session_convenience(self, dataset):
        protocol = build("MargHT")
        session = protocol.session(dataset.domain)
        assert session.spec == protocol.spec()
        assert "MargHT" in repr(session)


class TestSnapshot:
    def test_snapshot_is_non_destructive_and_repeatable(self, dataset):
        protocol = build("MargRR")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        session = AggregationSession(protocol.spec(), dataset.domain)
        session.submit(frames[0])
        first = estimates_of(session.snapshot())
        again = estimates_of(session.snapshot())
        assert_estimates_equal(again, first)
        # The session keeps aggregating after (repeated) snapshots.
        for frame in frames[1:]:
            session.submit(frame)
        assert session.num_reports == dataset.size
        final = estimates_of(session.snapshot())
        uninterrupted = AggregationSession(protocol.spec(), dataset.domain)
        for frame in frames:
            uninterrupted.submit(frame)
        assert_estimates_equal(final, estimates_of(uninterrupted.snapshot()))

    def test_snapshot_metadata_carries_spec_and_session(self, dataset):
        protocol = build("InpOLH")
        session = AggregationSession(protocol.spec(), dataset.domain)
        session.submit(encode_frames(protocol, dataset, None)[0])
        estimator = session.snapshot()
        assert estimator.metadata["spec"] == protocol.spec().to_dict()
        assert estimator.metadata["session"]["wire_batches"] == 1


class TestMerge:
    def test_merge_combines_shard_sessions(self, dataset):
        protocol = build("InpHT")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        single = AggregationSession(protocol.spec(), dataset.domain)
        for frame in frames:
            single.submit(frame)
        left = AggregationSession(protocol.spec(), dataset.domain)
        right = AggregationSession(protocol.spec(), dataset.domain)
        for position, frame in enumerate(frames):
            (left if position % 2 == 0 else right).submit(frame)
        left.merge(right)
        assert left.num_reports == dataset.size
        assert left.metadata == single.metadata
        assert_estimates_equal(
            estimates_of(left.snapshot()), estimates_of(single.snapshot())
        )

    def test_merge_mismatch_is_a_readable_spec_diff(self, dataset):
        first = AggregationSession(
            ProtocolSpec(protocol="InpHT", epsilon=1.0, max_width=2),
            dataset.domain,
        )
        second = AggregationSession(
            ProtocolSpec(protocol="InpHT", epsilon=2.0, max_width=2),
            dataset.domain,
        )
        with pytest.raises(AggregationError) as excinfo:
            first.merge(second)
        assert "epsilon: 1.0 != 2.0" in str(excinfo.value)

    def test_equal_specs_skip_the_canonical_diff(self, dataset, monkeypatch):
        spec = build("InpHT").spec()
        first = AggregationSession(spec, dataset.domain)
        second = AggregationSession(build("InpHT").spec(), dataset.domain)

        def no_diff(*args, **kwargs):
            raise AssertionError("equal specs must not be diffed")

        monkeypatch.setattr(ProtocolSpec, "diff", no_diff)
        first.merge(second)

    def test_merge_rejects_different_domains(self, dataset):
        spec = build("InpHT").spec()
        first = AggregationSession(spec, dataset.domain)
        second = AggregationSession(spec, Domain.binary(dataset.dimension, "x"))
        with pytest.raises(AggregationError, match="domains"):
            first.merge(second)

    def test_merge_rejects_non_sessions(self, dataset):
        session = build("InpHT").session(dataset.domain)
        with pytest.raises(AggregationError):
            session.merge("not a session")


class TestCheckpointRestoreMatrix:
    """Mid-stream checkpoint/restore == uninterrupted run, bit for bit."""

    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    @pytest.mark.parametrize("executor_name", sorted(available_executors()))
    def test_resumed_session_matches_uninterrupted_run(
        self, name, executor_name, dataset, executors, tmp_path
    ):
        protocol = build(name)
        uninterrupted = protocol.run_streaming(
            dataset,
            rng=np.random.default_rng(SEED),
            batch_size=BATCH_SIZE,
            shards=2,
            executor=executors(executor_name),
        )
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        session = AggregationSession(protocol.spec(), dataset.domain)
        for frame in frames[:2]:
            session.submit(frame)
        path = session.checkpoint(tmp_path / f"{name}.ckpt.npz")
        resumed = AggregationSession.restore(path)
        assert resumed.spec == session.spec
        assert resumed.domain == session.domain
        assert resumed.num_reports == session.num_reports
        for frame in frames[2:]:
            resumed.submit(frame)
        assert_estimates_equal(
            estimates_of(resumed.snapshot()), estimates_of(uninterrupted)
        )

    def test_checkpoint_preserves_wire_counters(self, dataset, tmp_path):
        protocol = build("InpEM")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        session = AggregationSession(protocol.spec(), dataset.domain)
        for frame in frames:
            session.submit(frame)
        restored = AggregationSession.restore(
            session.checkpoint(tmp_path / "em.ckpt.npz")
        )
        assert restored.metadata == session.metadata


class TestFreshProcessRestore:
    def test_restore_in_fresh_interpreter_resumes_bit_for_bit(
        self, dataset, tmp_path
    ):
        """A brand-new Python process restores each protocol's checkpoint,
        finishes the aggregation and reproduces the uninterrupted estimates
        exactly (compared through float hex, so bit-for-bit)."""
        expected = {}
        frame_dir = tmp_path / "frames"
        frame_dir.mkdir()
        for name in ALL_PROTOCOLS:
            protocol = build(name)
            frames = encode_frames(protocol, dataset, BATCH_SIZE)
            uninterrupted = AggregationSession(protocol.spec(), dataset.domain)
            for frame in frames:
                uninterrupted.submit(frame)
            expected[name] = {
                str(beta): [value.hex() for value in values]
                for beta, values in estimates_of(
                    uninterrupted.snapshot()
                ).items()
            }
            partial = AggregationSession(protocol.spec(), dataset.domain)
            for frame in frames[:2]:
                partial.submit(frame)
            partial.checkpoint(tmp_path / f"{name}.ckpt.npz")
            for position, frame in enumerate(frames[2:]):
                (frame_dir / f"{name}.{position}.bin").write_bytes(frame)

        script = textwrap.dedent(
            """
            import json, sys
            from pathlib import Path
            from repro.service import AggregationSession

            root = Path(sys.argv[1])
            names = json.loads(sys.argv[2])
            out = {}
            for name in names:
                session = AggregationSession.restore(root / f"{name}.ckpt.npz")
                for frame_path in sorted((root / "frames").glob(f"{name}.*.bin")):
                    session.submit(frame_path.read_bytes())
                estimator = session.snapshot()
                out[name] = {
                    str(beta): [value.hex() for value in table.values]
                    for beta, table in estimator.query_all().items()
                }
            print(json.dumps(out))
            """
        )
        source_root = Path(repro.__file__).resolve().parents[1]
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [str(source_root)]
            + ([environment["PYTHONPATH"]] if "PYTHONPATH" in environment else [])
        )
        completed = subprocess.run(
            [
                sys.executable,
                "-c",
                script,
                str(tmp_path),
                json.dumps(ALL_PROTOCOLS),
            ],
            capture_output=True,
            text=True,
            env=environment,
            check=True,
        )
        observed = json.loads(completed.stdout)
        assert observed == expected


def checkpoint_of(protocol_name, dataset, **extra):
    protocol = build(protocol_name)
    session = AggregationSession(protocol.spec(), dataset.domain)
    session.submit(encode_frames(protocol, dataset, None)[0])
    return session.checkpoint_bytes(**extra)


class TestRestoreErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(WireFormatError, match="cannot read"):
            AggregationSession.restore(tmp_path / "nope.npz")

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"definitely not a session checkpoint at all, no")
        with pytest.raises(WireFormatError, match="not a session checkpoint"):
            AggregationSession.restore(path)

    def test_version_mismatch(self, dataset):
        header, state = split_checkpoint(checkpoint_of("InpHT", dataset))
        stale = seal_checkpoint(header, state, version=2)
        with pytest.raises(WireFormatError, match="version 2.*npz"):
            AggregationSession.restore_bytes(stale)

    def test_missing_state_rejected(self, dataset):
        header, _ = split_checkpoint(checkpoint_of("InpHT", dataset))
        header["arrays"] = []
        with pytest.raises(WireFormatError, match="no accumulator state"):
            AggregationSession.restore_bytes(seal_checkpoint(header, b""))

    @pytest.mark.parametrize(
        "entry",
        [
            ["num_reports", "|O", []],
            ["num_reports", "<U4", []],
            ["num_reports", "no such dtype", []],
            ["num_reports", "<i8", [-1]],
            ["num_reports", "<i8", "8"],
            [7, "<i8", []],
            ["num_reports", "<i8"],
            ["num_reports", "<i8", [0] * 65],
            ["num_reports", "<i8", [0, 2**70]],
            ["num_reports", "<i8", [0, 2**30, 2**30, 2**30]],
        ],
    )
    def test_bad_array_table_entry_rejected(self, dataset, entry):
        header, state = split_checkpoint(checkpoint_of("InpRR", dataset))
        header["arrays"][-1] = entry
        with pytest.raises(WireFormatError, match="array table entry"):
            AggregationSession.restore_bytes(seal_checkpoint(header, state))

    def test_shape_beyond_the_remaining_bytes(self, dataset):
        header, state = split_checkpoint(checkpoint_of("InpRR", dataset))
        header["arrays"][0][2] = [10**6]
        with pytest.raises(WireFormatError, match="only .* remain"):
            AggregationSession.restore_bytes(seal_checkpoint(header, state))

    def test_trailing_bytes_rejected(self, dataset):
        header, state = split_checkpoint(checkpoint_of("InpRR", dataset))
        with pytest.raises(WireFormatError, match="trailing"):
            AggregationSession.restore_bytes(
                seal_checkpoint(header, state + b"\0")
            )

    def test_header_length_beyond_the_file(self, dataset):
        blob = checkpoint_of("InpRR", dataset)
        body = blob[:6] + struct.pack("<I", len(blob)) + blob[10:-32]
        forged = body + hashlib.sha256(body).digest()
        with pytest.raises(WireFormatError, match="header but holds"):
            AggregationSession.restore_bytes(forged)

    def test_state_that_does_not_fit_the_protocol(self, dataset):
        header, state = split_checkpoint(checkpoint_of("InpRR", dataset))
        header["arrays"][0][2] = [2, header["arrays"][0][2][0] // 2]
        with pytest.raises(WireFormatError, match="corrupted header or state"):
            AggregationSession.restore_bytes(seal_checkpoint(header, state))


class TestLayout:
    """The version-3 checkpoint is prefix, JSON header, arrays, trailer."""

    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_length_is_prefix_header_arrays_and_trailer(self, name, dataset):
        protocol = build(name)
        session = AggregationSession(protocol.spec(), dataset.domain)
        for frame in encode_frames(protocol, dataset, BATCH_SIZE):
            session.submit(frame)
        blob = session.checkpoint_bytes(extra={"acked_tokens": {"g": {}}})
        (header_length,) = struct.unpack_from("<I", blob, 6)
        header, state = parse_checkpoint(blob)
        assert blob[:6] == b"RPRC" + struct.pack("<H", 3)
        assert len(blob) == (
            10 + header_length + sum(a.nbytes for a in state.values()) + 32
        )
        assert blob[-32:] == hashlib.sha256(blob[:-32]).digest()
        assert [entry[0] for entry in header["arrays"]] == list(state)
        assert header["extra"] == {"acked_tokens": {"g": {}}}

    def test_same_session_gives_byte_identical_checkpoints(
        self, dataset, tmp_path
    ):
        protocol = build("MargHT")
        session = AggregationSession(protocol.spec(), dataset.domain)
        for frame in encode_frames(protocol, dataset, BATCH_SIZE):
            session.submit(frame)
        first = session.checkpoint_bytes(extra={"collector_id": "c0"})
        assert session.checkpoint_bytes(extra={"collector_id": "c0"}) == first
        restored = AggregationSession.restore_bytes(first)
        assert restored.checkpoint_bytes(extra={"collector_id": "c0"}) == first
        path = session.checkpoint(tmp_path / "s.npz", extra={"collector_id": "c0"})
        assert path.read_bytes() == first

    def test_npz_checkpoint_is_refused_naming_the_retired_format(
        self, tmp_path
    ):
        path = tmp_path / "legacy.npz"
        with path.open("wb") as handle:
            np.savez(
                handle,
                header=np.array(json.dumps({"format_version": 2})),
                state__num_reports=np.array(3),
            )
        with pytest.raises(WireFormatError, match="npz archive, the retired"):
            AggregationSession.restore(path)

    def test_unserializable_extra_is_refused(self, dataset):
        protocol = build("InpRR")
        session = AggregationSession(protocol.spec(), dataset.domain)
        with pytest.raises(
            ProtocolConfigurationError, match="not JSON-serializable"
        ):
            session.checkpoint_bytes(extra={"when": object()})
        with pytest.raises(ProtocolConfigurationError, match="must be a dict"):
            session.checkpoint_bytes(extra=["not", "a", "dict"])


class TestSpecMerge:
    def test_estimate_relevant_options_still_block_merging(self, dataset):
        first = AggregationSession(
            ProtocolSpec(
                protocol="InpOLH", epsilon=1.0, max_width=2,
                options={"num_buckets": 2},
            ),
            dataset.domain,
        )
        second = AggregationSession(
            ProtocolSpec(
                protocol="InpOLH", epsilon=1.0, max_width=2,
                options={"num_buckets": 8},
            ),
            dataset.domain,
        )
        with pytest.raises(AggregationError, match="num_buckets"):
            first.merge(second)

    def test_implicit_and_explicit_defaults_merge(self, dataset):
        """A spec leaving options at their defaults and one spelling the
        same defaults out build identical protocols, so their sessions
        combine (specs are compared in canonical form)."""
        implicit = ProtocolSpec(protocol="InpOLH", epsilon=1.0, max_width=2)
        explicit = ProtocolSpec(
            protocol="InpOLH", epsilon=1.0, max_width=2,
            options={"num_buckets": 0},
        )
        assert implicit.canonical() == explicit.canonical()
        frames = encode_frames(implicit.build(), dataset, BATCH_SIZE)
        first = AggregationSession(implicit, dataset.domain)
        second = AggregationSession(explicit, dataset.domain)
        first.submit(frames[0])
        second.submit(frames[1])
        first.merge(second)
        assert first.num_reports == 2 * BATCH_SIZE

    def test_corrupted_session_header_field(self, dataset):
        header, state = split_checkpoint(checkpoint_of("InpHT", dataset))
        header["session"] = "oops"
        with pytest.raises(WireFormatError, match="'session' must be a dict"):
            AggregationSession.restore_bytes(seal_checkpoint(header, state))

    def test_corrupted_attributes_header_field(self, dataset):
        header, state = split_checkpoint(checkpoint_of("InpHT", dataset))
        header["attributes"] = 7
        with pytest.raises(WireFormatError, match="corrupted header"):
            AggregationSession.restore_bytes(seal_checkpoint(header, state))


class TestAtomicCheckpoint:
    """checkpoint() must never destroy the previous checkpoint file.

    The write goes to a sibling temp file that is atomically renamed over
    the target, so a crash (or full disk) mid-write leaves the old
    checkpoint byte-identical and restorable.
    """

    def test_interrupted_write_preserves_previous_checkpoint(
        self, tmp_path, dataset, monkeypatch
    ):
        protocol = build("InpHT")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        session = AggregationSession(protocol.spec(), dataset.domain)
        for frame in frames[:2]:
            session.submit(frame)
        path = tmp_path / "session.npz"
        session.checkpoint(path)
        good_bytes = path.read_bytes()

        for frame in frames[2:]:
            session.submit(frame)

        real_write = os.write

        def torn_write(fd, data):
            # Simulate a crash mid-checkpoint: some bytes land, then boom.
            real_write(fd, bytes(data[:7]))
            raise OSError("disk full mid-write")

        monkeypatch.setattr(os, "write", torn_write)
        with pytest.raises(OSError, match="disk full"):
            session.checkpoint(path)
        monkeypatch.setattr(os, "write", real_write)

        # The previous checkpoint survived byte-for-byte and still restores.
        assert path.read_bytes() == good_bytes
        restored = AggregationSession.restore(path)
        assert restored.num_reports == 2 * BATCH_SIZE
        # No temp-file litter either.
        assert list(tmp_path.iterdir()) == [path]

    def test_rewrite_replaces_previous_checkpoint(self, tmp_path, dataset):
        protocol = build("InpRR")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        session = AggregationSession(protocol.spec(), dataset.domain)
        session.submit(frames[0])
        path = tmp_path / "session.npz"
        session.checkpoint(path)
        for frame in frames[1:]:
            session.submit(frame)
        session.checkpoint(path)
        restored = AggregationSession.restore(path)
        assert restored.num_reports == dataset.size
        assert_estimates_equal(
            estimates_of(restored.snapshot()), estimates_of(session.snapshot())
        )
        assert list(tmp_path.iterdir()) == [path]

    def test_checkpoint_mode_honors_umask(self, tmp_path, dataset):
        """The atomic temp-file write must not leak NamedTemporaryFile's
        0600 mode onto the checkpoint; other-user readers keep working."""
        protocol = build("InpRR")
        session = AggregationSession(protocol.spec(), dataset.domain)
        session.submit(encode_frames(protocol, dataset, None)[0])
        previous_umask = os.umask(0o022)
        try:
            path = session.checkpoint(tmp_path / "mode.npz")
        finally:
            os.umask(previous_umask)
        assert (path.stat().st_mode & 0o777) == 0o644

    def test_rename_is_made_durable_by_a_directory_fsync(
        self, tmp_path, dataset, monkeypatch
    ):
        """After os.replace the parent directory is fsync'd, so a power
        loss cannot bring the previous checkpoint back after an ACK."""
        protocol = build("InpRR")
        session = AggregationSession(protocol.spec(), dataset.domain)
        session.submit(encode_frames(protocol, dataset, None)[0])
        path = tmp_path / "state.npz"
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append((stat.S_ISDIR(os.fstat(fd).st_mode), path.exists()))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        session.checkpoint(path)
        # The temp file first (target not yet there), then the directory.
        assert synced == [(False, False), (True, True)]
