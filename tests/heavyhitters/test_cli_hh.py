"""CLI tests for heavy-hitter discovery: HH through the generic verbs,
``repro hh discover`` and the discovery listing role."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestListing:
    def test_json_listing_carries_the_discovery_role(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        entry = payload["protocols"]["HH"]
        assert entry["role"] == "discovery"
        assert entry["core"] is False
        for option in ("oracle", "fanout", "threshold", "top_k"):
            assert option in entry["options"]
        assert payload["protocols"]["InpHT"]["role"] == "core"
        assert payload["protocols"]["InpOLH"]["role"] == "baseline"

    def test_human_table_shows_the_discovery_family(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "HH" in output
        assert "discovery" in output
        assert "baseline" in output


class TestEncodeAggregate:
    """HH through the generic verbs: ``encode --protocol HH`` and an
    ``aggregate`` that appends the discovery walk."""

    def test_round_trip_discovers_and_checkpoints(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        frames_path = tmp_path / "frames.bin"
        checkpoint = tmp_path / "ckpt.npz"
        json_path = tmp_path / "hh.json"
        assert main([
            "encode", "--protocol", "HH",
            "--epsilon", "1.4", "--width", "2", "--dataset", "skewed",
            "-n", "3000", "-d", "6", "--seed", "11",
            "--batch-size", "1000",
            "--spec-out", str(spec_path),
            "--output", str(frames_path),
        ]) == 0
        capsys.readouterr()
        spec = json.loads(spec_path.read_text())
        assert spec["protocol"] == "HH"
        assert main([
            "aggregate",
            "--spec", str(spec_path), "-d", "6",
            "--input", str(frames_path),
            "--checkpoint", str(checkpoint),
            "--json", str(json_path),
        ]) == 0
        output = capsys.readouterr().out
        assert "heavy hitters" in output
        payload = json.loads(json_path.read_text())
        assert payload["num_reports"] == 3000
        assert payload["marginals"]
        hitters = payload["discovery"]["hitters"]
        assert hitters, "discovery returned no hitters"
        baseline = payload["discovery"]

        # Restoring the checkpoint re-discovers the identical result.
        json_again = tmp_path / "again.json"
        assert main([
            "aggregate",
            "--restore", str(checkpoint),
            "--input", "none",
            "--json", str(json_again),
        ]) == 0
        capsys.readouterr()
        assert json.loads(json_again.read_text())["discovery"] == baseline

    def test_top_k_override_at_discovery_time(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        frames_path = tmp_path / "frames.bin"
        assert main([
            "encode", "--protocol", "HH", "--epsilon", "1.4", "--width", "2",
            "--dataset", "skewed", "-n", "1000", "-d", "4",
            "--option", "top_k=6",
            "--spec-out", str(spec_path), "--output", str(frames_path),
        ]) == 0
        capsys.readouterr()
        json_path = tmp_path / "k2.json"
        assert main([
            "aggregate", "--spec", str(spec_path), "-d", "4",
            "--input", str(frames_path), "--top-k", "2",
            "--json", str(json_path),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(json_path.read_text())
        assert len(payload["discovery"]["hitters"]) == 2

    def test_a_protocol_without_discovery_prints_no_walk(
        self, tmp_path, capsys
    ):
        spec_path = tmp_path / "inpht.json"
        frames_path = tmp_path / "frames.bin"
        json_path = tmp_path / "inpht-out.json"
        assert main([
            "encode", "--protocol", "InpHT", "--epsilon", "1.0",
            "--width", "2", "-n", "100", "-d", "4",
            "--spec-out", str(spec_path), "--output", str(frames_path),
        ]) == 0
        capsys.readouterr()
        assert main([
            "aggregate", "--spec", str(spec_path), "-d", "4",
            "--input", str(frames_path), "--json", str(json_path),
        ]) == 0
        assert "heavy hitters" not in capsys.readouterr().out
        assert json.loads(json_path.read_text())["discovery"] is None

    def test_restore_excludes_contract_flags(self, tmp_path, capsys):
        """An HH checkpoint carries its own spec and domain: restoring it
        refuses ``--spec``/``--dimension`` but still takes ``--top-k``."""
        spec_path = tmp_path / "spec.json"
        frames_path = tmp_path / "frames.bin"
        checkpoint = tmp_path / "ckpt.npz"
        assert main([
            "encode", "--protocol", "HH", "--epsilon", "1.4", "--width", "2",
            "--dataset", "skewed", "-n", "1000", "-d", "4",
            "--spec-out", str(spec_path), "--output", str(frames_path),
        ]) == 0
        assert main([
            "aggregate", "--spec", str(spec_path), "-d", "4",
            "--input", str(frames_path), "--checkpoint", str(checkpoint),
        ]) == 0
        capsys.readouterr()
        for contract in (["--spec", str(spec_path)], ["--dimension", "4"]):
            assert main([
                "aggregate", "--restore", str(checkpoint), "--input", "none",
                *contract,
            ]) == 2
            assert "--restore carries" in capsys.readouterr().err
        json_path = tmp_path / "restored.json"
        assert main([
            "aggregate", "--restore", str(checkpoint), "--input", "none",
            "--top-k", "2", "--json", str(json_path),
        ]) == 0
        payload = json.loads(json_path.read_text())
        assert payload["num_reports"] == 1000
        assert len(payload["discovery"]["hitters"]) == 2


class TestDiscover:
    def test_local_discovery_scores_against_exact_top_k(
        self, tmp_path, capsys
    ):
        json_path = tmp_path / "discover.json"
        assert main([
            "hh", "discover",
            "--epsilon", "3.0", "--dataset", "skewed",
            "-n", "20000", "-d", "6", "--fanout", "3",
            "--seed", "7", "--top-k", "4",
            "--json", str(json_path),
        ]) == 0
        output = capsys.readouterr().out
        assert "precision" in output and "recall" in output
        payload = json.loads(json_path.read_text())
        assert payload["mode"] == "local"
        assert payload["num_reports"] == 20000
        assert len(payload["exact_top_k"]) == 4
        assert 0.0 <= payload["precision"] <= 1.0
        assert 0.0 <= payload["recall"] <= 1.0
        # Skewed data at eps=3 with 20k users is an easy instance; anything
        # below this bar means discovery (not noise) is broken.
        assert payload["recall"] >= 0.5

    def test_epsilon_required_without_topology(self, capsys):
        assert main(["hh", "discover", "-n", "100", "-d", "4"]) == 2
        assert "--epsilon is required" in capsys.readouterr().err

    def test_topology_mode_rejects_inline_epsilon(self, capsys):
        assert main([
            "hh", "discover", "--topology", "somewhere",
            "--epsilon", "1.0",
        ]) == 2
        assert "manifest" in capsys.readouterr().err
