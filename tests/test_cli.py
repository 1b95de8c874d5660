"""Unit tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import EXPERIMENTS, main


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in output
        assert "Figure 4" in output


class TestRun:
    def test_run_table2_quick(self, capsys):
        assert main(["run", "table2"]) == 0
        output = capsys.readouterr().out
        assert "Table 2" in output
        assert "InpHT" in output

    def test_run_writes_output_file(self, tmp_path, capsys):
        target = tmp_path / "fig3.txt"
        assert main(["run", "fig3", "--output", str(target)]) == 0
        capsys.readouterr()
        assert "Figure 3" in target.read_text()

    def test_run_sweep_writes_json(self, tmp_path, capsys, monkeypatch):
        # Shrink the fig10 quick preset further so the CLI test stays fast.
        from repro.experiments import fig10_freq_oracles
        from repro.experiments.config import SweepConfig

        def tiny_config(quick=True):
            return SweepConfig(
                protocols=("InpHT", "InpHTCMS"),
                dataset="skewed",
                population_sizes=(1024,),
                dimensions=(4,),
                widths=(2,),
                epsilons=(1.0,),
                repetitions=1,
            )

        monkeypatch.setattr(fig10_freq_oracles, "default_config", tiny_config)
        target = tmp_path / "fig10.json"
        assert main(["run", "fig10", "--json", str(target)]) == 0
        capsys.readouterr()
        payload = json.loads(target.read_text())
        assert payload["config"]["dataset"] == "skewed"
        assert payload["points"]

    def test_json_rejected_for_non_sweep_experiment(self, tmp_path, capsys):
        assert main(["run", "fig3", "--json", str(tmp_path / "x.json")]) == 2
        capsys.readouterr()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "figZZ"])


class TestExecutorFlags:
    """--executor/--workers parsing, forwarding and rejection paths."""

    @pytest.fixture
    def captured_config(self, monkeypatch):
        """Stub out fig10's run/render and capture the config it receives."""
        from repro.experiments import fig10_freq_oracles

        captured = {}

        def fake_run(config):
            captured["config"] = config
            return object()

        monkeypatch.setattr(fig10_freq_oracles, "run", fake_run)
        monkeypatch.setattr(
            fig10_freq_oracles, "render", lambda result: "rendered"
        )
        return captured

    def test_flags_are_forwarded_into_sweep_config(
        self, captured_config, capsys
    ):
        assert (
            main(
                [
                    "run",
                    "fig10",
                    "--batch-size",
                    "256",
                    "--shards",
                    "4",
                    "--executor",
                    "process",
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        capsys.readouterr()
        config = captured_config["config"]
        assert config.batch_size == 256
        assert config.shards == 4
        assert config.executor == "process"
        assert config.workers == 2

    def test_executor_alone_switches_to_streaming_path(
        self, captured_config, capsys
    ):
        assert main(["run", "fig10", "--executor", "process"]) == 0
        capsys.readouterr()
        assert captured_config["config"].executor == "process"
        assert captured_config["config"].workers == 1

    def test_zero_workers_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig10", "--workers", "0"])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["gpu", "thread"])
    def test_unknown_executor_rejected_by_argparse(self, name, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig10", "--executor", name])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_workers_require_a_parallel_executor(self, capsys):
        assert main(["run", "fig10", "--workers", "4"]) == 2
        assert "serial executor" in capsys.readouterr().err

    def test_workers_require_multiple_shards(self, capsys):
        assert (
            main(
                [
                    "run",
                    "fig10",
                    "--executor",
                    "process",
                    "--workers",
                    "4",
                    "--batch-size",
                    "256",
                ]
            )
            == 2
        )
        assert "per-shard" in capsys.readouterr().err

    def test_executor_rejected_for_non_sweep_experiment(self, capsys):
        assert main(["run", "fig3", "--executor", "process"]) == 2
        assert "sweep experiments" in capsys.readouterr().err


class TestServiceRoundTrip:
    """The encode | aggregate shell round trip is the deployed face of the
    pipeline; it must reproduce the in-process run_streaming estimates."""

    def test_encode_aggregate_matches_run_streaming(self, tmp_path, capsys):
        import numpy as np

        from repro.experiments.harness import make_dataset
        from repro.service import ProtocolSpec

        spec_path = tmp_path / "spec.json"
        frames_path = tmp_path / "reports.bin"
        json_path = tmp_path / "estimates.json"
        assert (
            main(
                [
                    "encode",
                    "--protocol", "InpHT",
                    "--epsilon", "1.1",
                    "--width", "2",
                    "--dataset", "taxi",
                    "-n", "600",
                    "-d", "5",
                    "--seed", "42",
                    "--batch-size", "150",
                    "--spec-out", str(spec_path),
                    "--output", str(frames_path),
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "600 users" in captured.err
        assert frames_path.stat().st_size > 0

        assert (
            main(
                [
                    "aggregate",
                    "--spec", str(spec_path),
                    "--dimension", "5",
                    "--input", str(frames_path),
                    "--json", str(json_path),
                ]
            )
            == 0
        )
        rendered = capsys.readouterr().out
        assert "reports   : 600" in rendered

        # The shell path must agree bit-for-bit with the in-process pipeline
        # (same seed, same batch size -> same per-batch generators).
        generator = np.random.default_rng(42)
        dataset = make_dataset("taxi", 600, 5, generator)
        protocol = ProtocolSpec.from_json(spec_path.read_text()).build()
        estimator = protocol.run_streaming(
            dataset, rng=generator, batch_size=150
        )
        payload = json.loads(json_path.read_text())
        assert payload["num_reports"] == 600
        expected = [
            [float(value) for value in table.values]
            for _, table in sorted(estimator.query_all().items())
        ]
        observed = [entry["values"] for entry in payload["marginals"]]
        assert observed == expected

    def test_aggregate_checkpoint_restore_flow(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        first = tmp_path / "first.bin"
        second = tmp_path / "second.bin"
        checkpoint = tmp_path / "session.npz"
        # Two encode runs stand in for two collection windows.
        assert main([
            "encode", "--protocol", "MargPS", "--epsilon", "1.0",
            "--width", "2", "--dataset", "uniform", "-n", "200", "-d", "4",
            "--seed", "1", "--spec-out", str(spec_path),
            "--output", str(first),
        ]) == 0
        assert main([
            "encode", "--protocol", "MargPS", "--epsilon", "1.0",
            "--width", "2", "--dataset", "uniform", "-n", "200", "-d", "4",
            "--seed", "2", "--output", str(second),
        ]) == 0
        assert main([
            "aggregate", "--spec", str(spec_path), "--dimension", "4",
            "--input", str(first), "--checkpoint", str(checkpoint),
        ]) == 0
        capsys.readouterr()
        assert main([
            "aggregate", "--restore", str(checkpoint),
            "--input", str(second),
        ]) == 0
        rendered = capsys.readouterr().out
        assert "reports   : 400" in rendered

    def test_encode_unknown_protocol_fails_cleanly(self, capsys):
        assert main([
            "encode", "--protocol", "InpMagic", "--epsilon", "1.0",
            "--width", "2",
        ]) == 2
        assert "InpMagic" in capsys.readouterr().err

    def test_encode_unknown_option_fails_cleanly(self, tmp_path, capsys):
        assert main([
            "encode", "--protocol", "InpHT", "--epsilon", "1.0",
            "--width", "2", "--option", "bogus=1",
            "--output", str(tmp_path / "x.bin"),
        ]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_encode_option_values_parsed_as_json(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        assert main([
            "encode", "--protocol", "InpHTCMS", "--epsilon", "1.0",
            "--width", "2", "--option", "width=64",
            "--option", "num_hashes=3",
            "--spec-out", str(spec_path),
            "-n", "50", "-d", "4",
            "--output", str(tmp_path / "x.bin"),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(spec_path.read_text())
        assert payload["options"] == {"width": 64, "num_hashes": 3}

    def test_aggregate_requires_spec_without_restore(self, capsys):
        assert main(["aggregate", "--dimension", "4"]) == 2
        assert "--spec" in capsys.readouterr().err

    def test_aggregate_requires_a_domain(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        assert main([
            "encode", "--protocol", "InpHT", "--epsilon", "1.0",
            "--width", "2", "-n", "50", "-d", "4",
            "--spec-out", str(spec_path),
            "--output", str(tmp_path / "x.bin"),
        ]) == 0
        capsys.readouterr()
        assert main(["aggregate", "--spec", str(spec_path)]) == 2
        assert "--dimension" in capsys.readouterr().err

    def test_aggregate_attribute_names(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        frames = tmp_path / "x.bin"
        assert main([
            "encode", "--protocol", "InpPS", "--epsilon", "1.0",
            "--width", "1", "-n", "80", "-d", "3",
            "--spec-out", str(spec_path), "--output", str(frames),
        ]) == 0
        capsys.readouterr()
        assert main([
            "aggregate", "--spec", str(spec_path),
            "--attributes", "CC,Tip,Night",
            "--input", str(frames),
        ]) == 0
        rendered = capsys.readouterr().out
        assert "CC:" in rendered and "Tip:" in rendered

    def test_encode_width_exceeding_dimension_fails_cleanly(self, tmp_path, capsys):
        assert main([
            "encode", "--protocol", "InpHT", "--epsilon", "1.0",
            "--width", "6", "-n", "10", "-d", "4",
            "--output", str(tmp_path / "x.bin"),
        ]) == 2
        assert "--width 6 exceeds" in capsys.readouterr().err

    def test_aggregate_rejects_restore_with_spec_or_domain(self, tmp_path, capsys):
        checkpoint = tmp_path / "ck.npz"
        assert main([
            "aggregate", "--restore", str(checkpoint),
            "--dimension", "4",
        ]) == 2
        assert "cannot be combined" in capsys.readouterr().err
        assert main([
            "aggregate", "--restore", str(checkpoint),
            "--spec", str(tmp_path / "spec.json"),
        ]) == 2
        assert "cannot be combined" in capsys.readouterr().err

    def test_aggregate_malformed_spec_fails_cleanly(self, tmp_path, capsys):
        bad_spec = tmp_path / "bad.json"
        bad_spec.write_text(
            '{"format_version": 1, "protocol": "InpHT", "epsilon": "abc",'
            ' "max_width": 2, "options": {}}'
        )
        assert main([
            "aggregate", "--spec", str(bad_spec), "--dimension", "4",
            "--input", "/dev/null",
        ]) == 2
        assert "epsilon" in capsys.readouterr().err

    def test_aggregate_restore_at_a_terminal_skips_stdin(
        self, tmp_path, capsys, monkeypatch
    ):
        spec_path = tmp_path / "spec.json"
        frames = tmp_path / "x.bin"
        checkpoint = tmp_path / "ck.npz"
        assert main([
            "encode", "--protocol", "InpHT", "--epsilon", "1.0",
            "--width", "2", "-n", "60", "-d", "4",
            "--spec-out", str(spec_path), "--output", str(frames),
        ]) == 0
        assert main([
            "aggregate", "--spec", str(spec_path), "--dimension", "4",
            "--input", str(frames), "--checkpoint", str(checkpoint),
        ]) == 0
        capsys.readouterr()
        # With --restore at an interactive terminal and no --input, there is
        # nothing to drain: the estimates re-print without touching stdin.
        monkeypatch.setattr("sys.stdin", type("Tty", (), {
            "isatty": staticmethod(lambda: True),
            "buffer": property(lambda self: (_ for _ in ()).throw(
                AssertionError("stdin must not be read")
            )),
        })())
        assert main(["aggregate", "--restore", str(checkpoint)]) == 0
        assert "reports   : 60" in capsys.readouterr().out

    def test_aggregate_missing_input_file_fails_cleanly(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        assert main([
            "encode", "--protocol", "InpHT", "--epsilon", "1.0",
            "--width", "2", "-n", "20", "-d", "4",
            "--spec-out", str(spec_path),
            "--output", str(tmp_path / "x.bin"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "aggregate", "--spec", str(spec_path), "--dimension", "4",
            "--input", str(tmp_path / "missing.bin"),
        ]) == 2
        assert "aggregate:" in capsys.readouterr().err

    def test_encode_bad_option_value_fails_cleanly(self, tmp_path, capsys):
        assert main([
            "encode", "--protocol", "InpHTCMS", "--epsilon", "1.0",
            "--width", "2", "--option", "width=abc",
            "-n", "20", "-d", "4",
            "--output", str(tmp_path / "x.bin"),
        ]) == 2
        assert "encode:" in capsys.readouterr().err

    def test_encode_unwritable_output_fails_cleanly(self, tmp_path, capsys):
        assert main([
            "encode", "--protocol", "InpHT", "--epsilon", "1.0",
            "--width", "2", "-n", "20", "-d", "4",
            "--output", str(tmp_path / "no-such-dir" / "x.bin"),
        ]) == 2
        assert "encode:" in capsys.readouterr().err

    def test_aggregate_restore_with_input_none(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        frames = tmp_path / "x.bin"
        checkpoint = tmp_path / "ck.npz"
        assert main([
            "encode", "--protocol", "InpHT", "--epsilon", "1.0",
            "--width", "2", "-n", "40", "-d", "4",
            "--spec-out", str(spec_path), "--output", str(frames),
        ]) == 0
        assert main([
            "aggregate", "--spec", str(spec_path), "--dimension", "4",
            "--input", str(frames), "--checkpoint", str(checkpoint),
        ]) == 0
        capsys.readouterr()
        # --input none re-prints a restored session without touching stdin,
        # even when stdin is a never-EOF pipe.
        assert main([
            "aggregate", "--restore", str(checkpoint), "--input", "none",
        ]) == 0
        assert "reports   : 40" in capsys.readouterr().out

    @pytest.mark.parametrize("protocol", ["InpHT", "HH"])
    def test_aggregate_with_no_reports_releases_nothing(
        self, tmp_path, capsys, protocol
    ):
        """A session that saw no reports prints the empty release, as
        ``serve`` and ``topo finalize`` do, instead of failing."""
        spec_path = tmp_path / "spec.json"
        json_path = tmp_path / "release.json"
        assert main([
            "encode", "--protocol", protocol, "--epsilon", "1.0",
            "--width", "2", "-n", "20", "-d", "4",
            "--spec-out", str(spec_path),
            "--output", str(tmp_path / "x.bin"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "aggregate", "--spec", str(spec_path), "--dimension", "4",
            "--input", "none", "--json", str(json_path),
        ]) == 0
        assert "reports   : 0" in capsys.readouterr().out
        text = json_path.read_text()
        assert '"marginals": []' in text
        payload = json.loads(text)
        assert payload["num_reports"] == 0
        assert payload["discovery"] is None

    def test_option_python_spelled_booleans(self, tmp_path, capsys):
        """--option optimized_probabilities=False must disable OUE, not
        silently configure the truthy string 'False'."""
        spec_path = tmp_path / "spec.json"
        assert main([
            "encode", "--protocol", "InpRR", "--epsilon", "1.0",
            "--width", "2", "--option", "optimized_probabilities=False",
            "-n", "20", "-d", "4",
            "--spec-out", str(spec_path),
            "--output", str(tmp_path / "x.bin"),
        ]) == 0
        capsys.readouterr()
        from repro.service import ProtocolSpec

        spec = ProtocolSpec.from_json(spec_path.read_text())
        assert spec.options == {"optimized_probabilities": False}
        assert spec.build().optimized_probabilities is False

    def test_dataset_choices_track_the_harness(self):
        from repro.experiments.harness import DATASET_NAMES, make_dataset

        import numpy as np

        for name in DATASET_NAMES:
            dataset = make_dataset(name, 16, 3, np.random.default_rng(0))
            assert dataset.size == 16

    def test_aggregate_streams_stdin_incrementally(self, tmp_path, capsys, monkeypatch):
        """The stdin path submits frames as they arrive instead of
        buffering the whole collection."""
        import io as io_module
        import sys as sys_module
        import types

        spec_path = tmp_path / "spec.json"
        frames_path = tmp_path / "frames.bin"
        assert main([
            "encode", "--protocol", "InpHT", "--epsilon", "1.0",
            "--width", "2", "-n", "120", "-d", "4", "--batch-size", "30",
            "--spec-out", str(spec_path), "--output", str(frames_path),
        ]) == 0
        capsys.readouterr()
        fake_stdin = types.SimpleNamespace(
            buffer=io_module.BytesIO(frames_path.read_bytes()),
            isatty=lambda: False,
        )
        monkeypatch.setattr(sys_module, "stdin", fake_stdin)
        assert main([
            "aggregate", "--spec", str(spec_path), "--dimension", "4",
        ]) == 0
        assert "reports   : 120" in capsys.readouterr().out

    def test_broken_pipe_exits_quietly(self, capsys, monkeypatch):
        import sys as sys_module
        import types

        class BrokenBuffer:
            def write(self, data):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        fake_stdout = types.SimpleNamespace(buffer=BrokenBuffer())
        monkeypatch.setattr(sys_module, "stdout", fake_stdout)
        assert main([
            "encode", "--protocol", "InpHT", "--epsilon", "1.0",
            "--width", "2", "-n", "20", "-d", "4",
        ]) == 0


class TestAggregateFoldsBlocks:
    """``repro aggregate`` parses each frame as it reads it and folds the
    parsed frames a block per ``DEFAULT_BATCH_MAX_USERS`` users, as a
    collector folds a group; its release is the one per-frame ``submit``
    makes, counters included."""

    FRAMES = 20
    USERS = 500  # per frame: 10,000 users, so 2 blocks (8,500 + 1,500)

    @pytest.mark.parametrize("name", ["InpOLH", "HH", "InpRR", "MargRR"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_blocks_release_what_per_frame_submit_releases(
        self, name, source, tmp_path, capsys, monkeypatch
    ):
        import io
        import math
        import sys
        import types

        from repro.cli import _release
        from repro.protocols.base import MarginalReleaseProtocol
        from repro.server import DEFAULT_BATCH_MAX_USERS
        from repro.service import AggregationSession

        from .service.util import build, encode_frames, small_dataset

        protocol = build(name, epsilon=3.0)
        dataset = small_dataset(n=self.FRAMES * self.USERS, d=6, seed=11)
        frames = encode_frames(protocol, dataset, self.USERS)
        assert len(frames) == self.FRAMES
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(protocol.spec().to_json())
        frames_path = tmp_path / "frames.bin"
        frames_path.write_bytes(b"".join(frames))
        json_path = tmp_path / "release.json"

        blocks = []
        real_block = MarginalReleaseProtocol.decode_report_block

        def decode_report_block(self, parsed, domain=None):
            blocks.append(sum(frame.num_users for frame in parsed))
            return real_block(self, parsed, domain)

        monkeypatch.setattr(
            MarginalReleaseProtocol, "decode_report_block", decode_report_block
        )
        arguments = ["aggregate", "--spec", str(spec_path), "--dimension", "6"]
        if source == "file":
            arguments += ["--input", str(frames_path)]
        else:
            monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(
                buffer=io.BytesIO(frames_path.read_bytes()), isatty=lambda: False
            ))
        assert main(arguments + ["--json", str(json_path)]) == 0
        capsys.readouterr()
        users = self.FRAMES * self.USERS
        assert len(blocks) == math.ceil(users / DEFAULT_BATCH_MAX_USERS)
        assert blocks == [8500, 1500]

        monkeypatch.undo()
        session = AggregationSession(protocol.spec(), dataset.domain)
        for frame in frames:
            session.submit(frame)
        _, expected = _release(session.snapshot(), session)
        assert json.loads(json_path.read_text()) == json.loads(json.dumps(expected))
        assert expected["session"]["wire_batches"] == self.FRAMES


class TestListJson:
    """`repro list --json` is the machine-readable contract for tooling
    (loadgen config validation); the human tables stay the default."""

    def test_json_listing_structure(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "experiments",
            "protocols",
            "datasets",
            "executors",
        }
        assert set(payload["experiments"]) == set(EXPERIMENTS)
        from repro.protocols.registry import available_protocols

        assert set(payload["protocols"]) == set(available_protocols())
        entry = payload["protocols"]["InpOLH"]
        assert set(entry) == {"core", "role", "options", "default_options"}
        assert entry["core"] is False
        assert entry["options"] == ["num_buckets"]
        assert entry["default_options"] == {"num_buckets": 0}
        assert payload["protocols"]["InpHT"]["core"] is True
        assert "taxi" in payload["datasets"]
        assert "serial" in payload["executors"]

    def test_human_listing_includes_protocols(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "protocols:" in output
        assert "InpHT" in output
        assert "baseline" in output


class TestServeLoadValidation:
    def test_serve_requires_a_contract(self, capsys):
        assert main(["serve", "--dimension", "4"]) == 2
        assert "--spec" in capsys.readouterr().err

    def test_serve_rejects_spec_and_protocol_together(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            '{"format_version": 1, "protocol": "InpRR", "epsilon": 1.0, '
            '"max_width": 2, "options": {}}'
        )
        assert main([
            "serve", "--spec", str(spec_path), "--protocol", "InpRR",
            "--epsilon", "1.0", "--width", "2", "--dimension", "4",
        ]) == 2
        assert "not both" in capsys.readouterr().err

    def test_serve_requires_a_domain(self, capsys):
        assert main([
            "serve", "--protocol", "InpRR", "--epsilon", "1.0", "--width", "2",
        ]) == 2
        assert "--dimension" in capsys.readouterr().err

    def test_serve_rejects_unknown_protocol(self, capsys):
        assert main([
            "serve", "--protocol", "InpMagic", "--epsilon", "1.0",
            "--width", "2", "--dimension", "4",
        ]) == 2
        assert "InpMagic" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["serve"], ["topo", "launch", "--dir", "topo"]]
    )
    def test_retired_checkpoint_interval_flag_is_refused(self, command, capsys):
        """A checkpoint directory's commit log makes every ACK'd group
        durable, so there is no snapshot timer left to set."""
        with pytest.raises(SystemExit) as excinfo:
            main(command + [
                "--protocol", "InpRR", "--epsilon", "1.0", "--width", "2",
                "--dimension", "4", "--checkpoint-interval", "5",
            ])
        assert excinfo.value.code == 2
        assert (
            "unrecognized arguments: --checkpoint-interval"
            in capsys.readouterr().err
        )

    def test_load_requires_a_contract(self, capsys):
        assert main(["load", "--dimension", "4"]) == 2
        assert "--spec" in capsys.readouterr().err

    def test_load_inline_protocol_requires_epsilon_and_width(self, capsys):
        assert main(["load", "--protocol", "InpRR", "--dimension", "4"]) == 2
        assert "--epsilon" in capsys.readouterr().err

    def test_load_against_dead_port_fails_cleanly(self, capsys):
        assert main([
            "load", "--protocol", "InpRR", "--epsilon", "1.0", "--width", "2",
            "--dimension", "4", "--port", "1", "--clients", "1",
            "--records-per-client", "8", "--connect-timeout", "0.2",
        ]) == 2
        assert "cannot connect" in capsys.readouterr().err


class TestPositiveFloatFlags:
    """Timeouts and intervals must be finite and positive: a NaN deadline
    never passes (``monotonic() >= nan`` is always false), a zero stats
    interval divides by zero, and ``time.sleep(nan)`` raises."""

    FLAGS = [
        pytest.param(["load"], "--connect-timeout", id="load"),
        pytest.param(["serve"], "--stats-interval", id="serve"),
        pytest.param(["watch"], "--interval", id="watch-interval"),
        pytest.param(["watch"], "--timeout", id="watch-timeout"),
    ]

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("command,flag", FLAGS)
    def test_flag_refuses(self, command, flag, value, capsys):
        from repro.cli import _build_parser

        with pytest.raises(SystemExit) as excinfo:
            _build_parser().parse_args(command + [flag, value])
        assert excinfo.value.code == 2
        assert "must be a finite number > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", FLAGS)
    def test_flag_accepts_a_positive_number(self, command, flag):
        from repro.cli import _build_parser

        arguments = _build_parser().parse_args(command + [flag, "0.5"])
        assert getattr(arguments, flag[2:].replace("-", "_")) == 0.5


class TestRetiredResilienceOptions:
    """Client failure handling is one retry schedule: the breaker, backoff
    and deadline flags are gone, and a manifest's policy block is ignored."""

    CONTRACT = [
        "--protocol", "InpRR", "--epsilon", "1.0", "--width", "2",
        "--dimension", "4",
    ]

    @pytest.mark.parametrize(
        "command,flag",
        [
            (["load"], ["--breaker"]),
            (["load"], ["--max-retries", "2"]),
            (["load"], ["--retry-base-delay", "1"]),
            (["load"], ["--retry-max-delay", "1"]),
            (["load"], ["--retry-deadline", "1"]),
            (["topo", "launch", "--dir", "topo"], ["--publish-resilience"]),
        ],
        ids=lambda value: " ".join(value),
    )
    def test_flag_is_refused(self, command, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(command + self.CONTRACT + flag)
        assert excinfo.value.code == 2
        assert (
            f"unrecognized arguments: {' '.join(flag)}"
            in capsys.readouterr().err
        )

    def test_a_published_resilience_block_is_ignored(self, tmp_path):
        """A manifest written with the old ``--publish-resilience`` still
        drives ``repro load --topology``, on the default schedule."""
        from repro.cli import _build_parser, _load_topology_contract
        from repro.resilience.defaults import LOADGEN_RETRY_POLICY
        from repro.server import LoadGenerator
        from repro.service import ProtocolSpec

        manifest = {
            "format_version": 1,
            "spec": ProtocolSpec(
                protocol="InpRR", epsilon=1.0, max_width=2
            ).to_dict(),
            "attributes": ["a0", "a1", "a2", "a3"],
            "routing": "hash",
            "collectors": [
                {
                    "collector_id": "c0",
                    "host": "127.0.0.1",
                    "port": 7311,
                    "checkpoint_dir": str(tmp_path / "c0"),
                }
            ],
            "resilience": {
                "retry": {
                    "max_retries": 3, "base_delay": 0.2, "max_delay": 5.0,
                    "growth": "exponential", "jitter": "full",
                    "deadline": None,
                },
                "timeouts": {"connect": 10.0, "io": 30.0, "pull": 10.0},
                "breaker": {
                    "failure_threshold": 5, "failure_rate": 0.5,
                    "window_seconds": 30.0, "cooldown_seconds": 1.0,
                    "half_open_probes": 1,
                },
            },
        }
        (tmp_path / "topology.json").write_text(json.dumps(manifest))
        arguments = _build_parser().parse_args(
            ["load", "--topology", str(tmp_path), "--token-prefix", "p"]
        )
        spec, domain, kwargs = _load_topology_contract(arguments)
        assert kwargs == {
            "targets": [("127.0.0.1", 7311)],
            "routing": "hash",
            "token_prefix": "p",
            "failover": None,
        }
        fleet = LoadGenerator(spec, domain, **kwargs)
        assert fleet._retry_policy is LOADGEN_RETRY_POLICY
        assert domain.attributes == ("a0", "a1", "a2", "a3")


class TestServeLoadRoundTrip:
    """The socket round trip: `repro serve` in a real child process,
    `repro load` in-process, estimates equal to run_streaming."""

    @staticmethod
    def serve_and_load(serve_args, load_args, capsys):
        """Run ``repro serve SERVE_ARGS --port 0`` in a child process and
        ``repro load LOAD_ARGS`` against it; returns the load's stdout once
        the server has exited 0."""
        import os
        import re
        import subprocess
        import sys

        import repro

        source_root = __import__("pathlib").Path(
            repro.__file__
        ).resolve().parents[1]
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [str(source_root)]
            + ([environment["PYTHONPATH"]] if "PYTHONPATH" in environment else [])
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
            + serve_args,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=environment,
        )
        try:
            ready = process.stderr.readline()
            match = re.search(r"on 127\.0\.0\.1:(\d+)", ready)
            assert match, f"no readiness line: {ready!r}"
            assert main(["load", "--port", match.group(1)] + load_args) == 0
            rendered = capsys.readouterr().out
            process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
            process.stderr.close()
        assert process.returncode == 0
        return rendered

    @staticmethod
    def run_streaming_marginals(seed, n, dimension, batch_size):
        import numpy as np

        from repro.experiments.harness import make_dataset
        from repro.protocols.registry import make_protocol

        generator = np.random.default_rng(seed)
        dataset = make_dataset("uniform", n, dimension, generator)
        baseline = make_protocol("InpRR", 1.1, 2).run_streaming(
            dataset, rng=generator, batch_size=batch_size
        )
        return [
            [float(value) for value in table.values]
            for _, table in sorted(baseline.query_all().items())
        ]

    CONTRACT = [
        "--protocol", "InpRR", "--epsilon", "1.1", "--width", "2",
        "--dimension", "5",
    ]

    def test_serve_load_matches_run_streaming(self, tmp_path, capsys):
        server_json = tmp_path / "server.json"
        ckpt_dir = tmp_path / "ckpt"
        load_json = tmp_path / "load.json"
        rendered = self.serve_and_load(
            self.CONTRACT + [
                "--shards", "2", "--stop-after-reports", "600",
                "--checkpoint-dir", str(ckpt_dir),
                "--json", str(server_json),
            ],
            self.CONTRACT + [
                "--clients", "10", "--dataset", "uniform", "-n", "600",
                "--batch-size", "100", "--seed", "11", "--malformed", "2",
                "--json", str(load_json),
            ],
            capsys,
        )
        assert "600 acked" in rendered

        payload = json.loads(server_json.read_text())
        assert payload["num_reports"] == 600
        assert payload["server"]["connections"]["rejected"] == 2
        # One durable snapshot, no per-shard checkpoint files.
        assert (ckpt_dir / "state.npz").exists()
        assert not list(ckpt_dir.glob("shard-*"))

        observed = [entry["values"] for entry in payload["marginals"]]
        assert observed == self.run_streaming_marginals(11, 600, 5, 100)

        fleet_report = json.loads(load_json.read_text())
        assert fleet_report["acked_reports"] == 600
        assert fleet_report["rejected_connections"] == 2

    def test_serve_resumes_from_its_checkpoint_dir(self, tmp_path, capsys):
        """A second ``serve`` on the same ``--checkpoint-dir`` carries on
        from the first: its estimates cover both runs' reports, bit for
        bit, and ``--stop-after-reports`` counts only its own."""
        import numpy as np

        from repro.core.domain import Domain
        from repro.experiments.harness import make_dataset
        from repro.server import LoadGenerator
        from repro.service import AggregationSession, ProtocolSpec

        ckpt_dir = tmp_path / "ckpt"
        server_json = tmp_path / "server.json"
        for seed in (11, 12):
            rendered = self.serve_and_load(
                self.CONTRACT + [
                    "--shards", "2", "--stop-after-reports", "600",
                    "--checkpoint-dir", str(ckpt_dir),
                    "--json", str(server_json),
                ],
                self.CONTRACT + [
                    "--clients", "10", "--dataset", "uniform", "-n", "600",
                    "--batch-size", "100", "--seed", str(seed),
                ],
                capsys,
            )
            assert "600 acked" in rendered

        payload = json.loads(server_json.read_text())
        assert payload["num_reports"] == 1200
        assert payload["server"]["reports"] == 1200

        spec = ProtocolSpec.from_dict(payload["spec"])
        expected = AggregationSession(spec, Domain(payload["attributes"]))
        for seed in (11, 12):
            generator = np.random.default_rng(seed)
            dataset = make_dataset("uniform", 600, 5, generator)
            for frame in LoadGenerator.frames_for_dataset(
                spec, dataset, 100, rng=generator
            ):
                expected.submit(frame)
        marginals = sorted(expected.snapshot().query_all().items())
        assert [entry["values"] for entry in payload["marginals"]] == [
            [float(value) for value in table.values] for _, table in marginals
        ]

    def test_aggregate_restores_the_snapshot_serve_left_behind(
        self, tmp_path, capsys
    ):
        """``DIR/state.npz`` is a session checkpoint: ``repro aggregate
        --restore`` reads back every report the serve committed."""
        server_json = tmp_path / "server.json"
        ckpt_dir = tmp_path / "ckpt"
        restored_json = tmp_path / "restored.json"
        self.serve_and_load(
            self.CONTRACT + [
                "--shards", "2", "--stop-after-reports", "600",
                "--checkpoint-dir", str(ckpt_dir),
                "--json", str(server_json),
            ],
            self.CONTRACT + [
                "--clients", "10", "--dataset", "uniform", "-n", "600",
                "--batch-size", "100", "--seed", "11",
            ],
            capsys,
        )
        assert main([
            "aggregate", "--restore", str(ckpt_dir / "state.npz"),
            "--input", "none", "--json", str(restored_json),
        ]) == 0
        restored = json.loads(restored_json.read_text())
        served = json.loads(server_json.read_text())
        assert restored["num_reports"] == served["num_reports"] == 600
        assert restored["marginals"] == served["marginals"]

    def test_serve_processes_keeps_state_per_collector(self, tmp_path, capsys):
        """``--processes`` runs a supervised shared-port fleet that keeps
        its state in ``DIR/c<i>/``."""
        server_json = tmp_path / "server.json"
        state_dir = tmp_path / "state"
        rendered = self.serve_and_load(
            self.CONTRACT + [
                "--processes", "2", "--checkpoint-dir", str(state_dir),
                "--stop-after-reports", "600", "--json", str(server_json),
            ],
            self.CONTRACT + [
                "--clients", "10", "--dataset", "uniform", "-n", "600",
                "--batch-size", "100", "--seed", "11",
            ],
            capsys,
        )
        assert "600 acked" in rendered

        payload = json.loads(server_json.read_text())
        assert payload["num_reports"] == 600
        assert payload["server"]["processes"] == 2
        assert payload["server"]["reports"] == 600
        for index in range(2):
            assert (state_dir / f"c{index}" / "state.npz").exists()
        assert [entry["values"] for entry in payload["marginals"]] == (
            self.run_streaming_marginals(11, 600, 5, 100)
        )

    def test_serve_with_no_reports_emits_consistent_json(self, tmp_path):
        import os
        import re
        import signal as signal_module
        import subprocess
        import sys

        import repro

        source_root = __import__("pathlib").Path(
            repro.__file__
        ).resolve().parents[1]
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [str(source_root)]
            + ([environment["PYTHONPATH"]] if "PYTHONPATH" in environment else [])
        )
        server_json = tmp_path / "empty.json"
        rendered_txt = tmp_path / "empty.txt"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--protocol", "InpRR", "--epsilon", "1.0", "--width", "2",
                "--dimension", "4", "--port", "0",
                "--json", str(server_json), "--output", str(rendered_txt),
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=environment,
        )
        try:
            ready = process.stderr.readline()
            assert re.search(r"on 127\.0\.0\.1:\d+", ready), ready
            process.send_signal(signal_module.SIGTERM)
            process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
            process.stderr.close()
        assert process.returncode == 0
        payload = json.loads(server_json.read_text())
        # Same shape as the non-empty path: consumers read num_reports,
        # spec, attributes and marginals without special-casing.
        assert payload["num_reports"] == 0
        assert payload["marginals"] == []
        assert payload["spec"]["protocol"] == "InpRR"
        assert payload["attributes"] == ["attr0", "attr1", "attr2", "attr3"]
        assert payload["server"]["connections"]["total"] == 0
        assert "reports   : 0" in rendered_txt.read_text()
