"""CLI tests for heavy-hitter discovery: HH through the generic verbs and
the discovery listing role."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.cli import _release, main
from repro.core.domain import Domain
from repro.experiments.harness import make_dataset
from repro.io import save_protocol_spec
from repro.service.session import AggregationSession
from repro.topology.tree import MANIFEST_FILENAME, MANIFEST_FORMAT_VERSION

from ..service.util import build, encode_frames
from ..topology.harness import drive_fleet, spawn_tree


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

    def test_discovery_has_no_verb_of_its_own(self, capsys):
        """Discovery is part of every release, not a verb of its own."""
        with pytest.raises(SystemExit) as excinfo:
            main(["hh", "discover"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


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



def encode_hh(tmp_path, capsys):
    """Encode a small skewed HH collection; return (spec, frames) paths."""
    spec_path = tmp_path / "spec.json"
    frames_path = tmp_path / "frames.bin"
    assert main([
        "encode", "--protocol", "HH", "--epsilon", "1.4", "--width", "2",
        "--dataset", "skewed", "-n", "1000", "-d", "4", "--seed", "3",
        "--spec-out", str(spec_path), "--output", str(frames_path),
    ]) == 0
    capsys.readouterr()
    return spec_path, frames_path


class TestConfidence:
    """``aggregate --confidence`` sets the level of the walk's intervals."""

    def test_confidence_reaches_the_walk(self, tmp_path, capsys):
        spec_path, frames_path = encode_hh(tmp_path, capsys)
        payloads = {}
        for level in ("0.5", "0.95"):
            json_path = tmp_path / f"c{level}.json"
            assert main([
                "aggregate", "--spec", str(spec_path), "-d", "4",
                "--input", str(frames_path), "--confidence", level,
                "--json", str(json_path),
            ]) == 0
            payloads[level] = json.loads(json_path.read_text())["discovery"]
            assert f"({float(level):.0%} confidence)" in (
                capsys.readouterr().out
            )
        narrow, wide = payloads["0.5"], payloads["0.95"]
        assert narrow["confidence"] == 0.5
        assert wide["confidence"] == 0.95
        assert narrow["hitters"] and wide["hitters"]
        assert max(h["half_width"] for h in narrow["hitters"]) < min(
            h["half_width"] for h in wide["hitters"]
        )

    @pytest.mark.parametrize("level", ["0", "1", "1.5", "nan"])
    def test_confidence_outside_the_unit_interval_is_refused(
        self, level, tmp_path, capsys
    ):
        spec_path, frames_path = encode_hh(tmp_path, capsys)
        assert main([
            "aggregate", "--spec", str(spec_path), "-d", "4",
            "--input", str(frames_path), "--confidence", level,
        ]) == 2
        assert "confidence must lie in (0, 1)" in capsys.readouterr().err


class TestRelease:
    """The one release rendering every verb prints and records."""

    def test_an_hh_release_carries_the_estimators_own_walk(self):
        protocol = build("HH", epsilon=3.0)
        dataset = make_dataset("skewed", 800, 4, np.random.default_rng(5))
        session = AggregationSession(protocol.spec(), dataset.domain)
        for frame in encode_frames(protocol, dataset, 200):
            session.submit(frame)
        rendered, payload = _release(
            session.snapshot(), session, top_k=3, confidence=0.9
        )
        expected = session.snapshot().discover(top_k=3, confidence=0.9)
        assert payload["discovery"] == expected.to_dict()
        assert len(payload["discovery"]["hitters"]) == 3
        assert "(90% confidence)" in rendered
        assert payload["num_reports"] == 800
        assert payload["marginals"]

    def test_a_release_without_an_estimator_has_no_marginals_or_walk(self):
        protocol = build("HH", epsilon=3.0)
        session = AggregationSession(protocol.spec(), Domain.binary(4))
        rendered, payload = _release(None, session)
        assert payload["marginals"] == []
        assert payload["discovery"] is None
        assert payload["num_reports"] == 0
        assert "heavy hitters" not in rendered


class TestTopoFinalize:
    def test_finalize_discovers_what_aggregate_discovers(
        self, tmp_path, capsys
    ):
        """``topo finalize`` on a live HH tree prints and records the same
        discovery walk as ``aggregate`` over the same frames."""
        protocol = build("HH", epsilon=3.0)
        dataset = make_dataset("skewed", 2000, 6, np.random.default_rng(7))
        domain = Domain.binary(dataset.dimension)
        frames = encode_frames(protocol, dataset, 250)
        spec_path = tmp_path / "spec.json"
        frames_path = tmp_path / "frames.bin"
        save_protocol_spec(protocol.spec(), spec_path)
        frames_path.write_bytes(b"".join(frames))
        tree = tmp_path / "tree"
        with spawn_tree(protocol, domain, tree) as supervisor:
            asyncio.run(drive_fleet(supervisor, protocol, domain, frames))
            (tree / MANIFEST_FILENAME).write_text(json.dumps({
                "format_version": MANIFEST_FORMAT_VERSION,
                "spec": supervisor.spec.to_dict(),
                "attributes": list(domain.attributes),
                "routing": "round-robin",
                "collectors": supervisor.describe(),
            }))
            assert main([
                "topo", "finalize", "--dir", str(tree),
                "--json", str(tmp_path / "topo.json"),
            ]) == 0
        finalized = capsys.readouterr().out
        assert main([
            "aggregate", "--spec", str(spec_path), "-d", "6",
            "--input", str(frames_path),
            "--json", str(tmp_path / "local.json"),
        ]) == 0
        aggregated = capsys.readouterr().out
        walk = finalized[finalized.index("levels    :"):]
        assert walk == aggregated[aggregated.index("levels    :"):]
        topo = json.loads((tmp_path / "topo.json").read_text())
        local = json.loads((tmp_path / "local.json").read_text())
        assert topo["num_reports"] == local["num_reports"] == 2000
        assert topo["discovery"]["hitters"], "discovery returned no hitters"
        assert topo["discovery"] == local["discovery"]
