"""ReportSpool durability: replay, torn tails, and mid-log damage.

The contract under test: a crash may tear at most the *final* record
(which recovery silently truncates); anything else wrong with the log is
untrustworthy and must raise :class:`SpoolError` rather than replay
guessed bytes into an aggregation.
"""

from __future__ import annotations

import os

import pytest

from repro.core.exceptions import SpoolError
from repro.resilience import ReportSpool

from .injectors import enospc_on_fsync

FRAMES_A = [b"frame-a0", b"frame-a1"]
FRAMES_B = [b"frame-b0"]


class TestRoundTrip:
    def test_append_commit_and_reopen(self, tmp_path):
        path = tmp_path / "client.spool"
        with ReportSpool(path) as spool:
            spool.append_group("run/c0/g0", FRAMES_A)
            spool.append_group("run/c0/g1", FRAMES_B)
            spool.commit_group(
                "run/c0/g0", {"frames": 2, "reports": 48, "address": "h:1"}
            )
        with ReportSpool(path) as spool:
            assert len(spool) == 2
            assert spool.pending_groups() == {"run/c0/g1": FRAMES_B}
            assert spool.committed_groups() == {
                "run/c0/g0": {"frames": 2, "reports": 48, "address": "h:1"}
            }
            assert spool.frames_for("run/c0/g0") == FRAMES_A

    def test_pending_groups_keep_append_order(self, tmp_path):
        with ReportSpool(tmp_path / "s.spool") as spool:
            keys = [f"run/c0/g{index}" for index in range(5)]
            for key in keys:
                spool.append_group(key, [key.encode()])
            assert list(spool.pending_groups()) == keys

    def test_duplicate_append_is_rejected(self, tmp_path):
        with ReportSpool(tmp_path / "s.spool") as spool:
            spool.append_group("g", FRAMES_A)
            with pytest.raises(SpoolError, match="already spooled"):
                spool.append_group("g", FRAMES_A)

    def test_commit_of_unknown_group_is_rejected(self, tmp_path):
        with ReportSpool(tmp_path / "s.spool") as spool:
            with pytest.raises(SpoolError, match="unknown group"):
                spool.commit_group("ghost", {})

    def test_double_commit_is_rejected(self, tmp_path):
        with ReportSpool(tmp_path / "s.spool") as spool:
            spool.append_group("g", FRAMES_A)
            spool.commit_group("g", {"frames": 2})
            with pytest.raises(SpoolError, match="already committed"):
                spool.commit_group("g", {"frames": 2})


class TestCrashRecovery:
    def _spool_with_two_groups(self, path):
        with ReportSpool(path) as spool:
            spool.append_group("g0", FRAMES_A)
            spool.commit_group("g0", {"frames": 2, "reports": 48})
            spool.append_group("g1", FRAMES_B)

    def test_truncated_tail_is_dropped_not_fatal(self, tmp_path):
        path = tmp_path / "s.spool"
        self._spool_with_two_groups(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])  # crash mid-append of the last record
        with ReportSpool(path) as spool:
            assert spool.committed_groups() == {
                "g0": {"frames": 2, "reports": 48}
            }
            assert spool.pending_groups() == {}  # g1's record was torn away
            # The file is truncated back to a record boundary: appending
            # g1 again must produce a clean, fully-recoverable log.
            spool.append_group("g1", FRAMES_B)
        with ReportSpool(path) as spool:
            assert spool.pending_groups() == {"g1": FRAMES_B}

    def test_digest_broken_final_record_counts_as_torn(self, tmp_path):
        path = tmp_path / "s.spool"
        self._spool_with_two_groups(path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # the tail record's trailing digest byte
        path.write_bytes(bytes(blob))
        with ReportSpool(path) as spool:
            assert "g1" not in spool.pending_groups()
            assert "g0" in spool.committed_groups()

    def test_mid_log_damage_raises_with_the_byte_offset(self, tmp_path):
        path = tmp_path / "s.spool"
        self._spool_with_two_groups(path)
        blob = bytearray(path.read_bytes())
        blob[10] ^= 0xFF  # inside the first record, with records after it
        path.write_bytes(bytes(blob))
        with pytest.raises(SpoolError, match=r"corrupted at byte \d+"):
            ReportSpool(path)

    def test_bad_magic_raises_even_at_the_tail(self, tmp_path):
        path = tmp_path / "s.spool"
        path.write_bytes(b"XXXX" + bytes(32))
        with pytest.raises(SpoolError, match="magic"):
            ReportSpool(path)


class TestDiskFaults:
    def test_full_disk_on_append_raises_spool_error(self, tmp_path):
        with ReportSpool(tmp_path / "s.spool") as spool:
            with enospc_on_fsync():
                with pytest.raises(SpoolError, match="No space left"):
                    spool.append_group("g0", FRAMES_A)

    def test_every_append_is_fsynced_before_it_returns(
        self, tmp_path, monkeypatch
    ):
        # Durability is not optional: each append syncs the spool file.
        synced = []
        real = os.fsync

        def counting_fsync(fd):
            synced.append(fd)
            real(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        with ReportSpool(tmp_path / "s.spool") as spool:
            spool.append_group("g0", FRAMES_A)
            assert len(synced) == 1
            spool.append_group("g1", FRAMES_B)
            assert len(synced) == 2
