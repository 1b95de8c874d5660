"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e -q``).

Runs every workload at a tiny size in both modes, checks the emitted metric
names against BENCHMARK.json, trips the correctness gate with a tampered
reference, and checks compare.py's verdicts on synthetic samples.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, tiny  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, scratch):
    return run.run_workload(
        tiny(workload), 7, 0.0, trace, scratch, setup_repeats=1, min_passes=1
    )


def test_workloads_match_benchmark_json():
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == [
        workload.name for workload in WORKLOADS
    ]
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {entry["name"]: entry["unit"] for entry in BENCHMARK[key]} == units


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda workload: workload.name)
def test_every_metric_is_emitted(workload, tmp_path):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        record = _run(workload, trace, tmp_path)
        assert record["correct"], record["errors"]
        assert record["attempted"] > 0 and record["failed"] == 0
        names = [entry["name"] for entry in BENCHMARK[key]]
        assert sorted(record["metrics"]) == sorted(names)
        assert all(
            isinstance(metric["value"], (int, float))
            for metric in record["metrics"].values()
        )
    shares = [name for name in run.PER_LAYER if name.endswith(".share")]
    assert sum(record["metrics"][name]["value"] for name in shares) == pytest.approx(1.0)


def test_gate_trips_on_a_tampered_reference(tmp_path, monkeypatch):
    honest = run.answer

    def tampered(estimator, reports):
        answer = honest(estimator, reports)
        answer.marginals[0][0] += 1e-12
        return answer

    monkeypatch.setattr(run, "answer", tampered)
    record = _run(WORKLOADS[0], False, tmp_path)
    assert not record["correct"]
    assert record["failed"] == record["attempted"] > 0


def test_runner_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.relative_to(ROOT))
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "rr-stream"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [103.0] * 5, "lower", 0.10) == "within bound"
    assert compare.verdict(steady, [95.0] * 5, "lower", 0.10) == "within bound"
    assert compare.verdict(steady, [115.0] * 5, "lower", 0.10) == "regressed"
    assert compare.verdict(steady, [85.0] * 5, "higher", 0.10) == "regressed"
    assert compare.verdict(steady, [115.0] * 5, "higher", 0.10) == "within bound"
    noisy = [70.0, 130.0, 85.0, 115.0, 100.0]
    assert compare.verdict(noisy, [101.0] * 5, "lower", 0.10) == "unresolved"
    assert compare.verdict(noisy, [60.0] * 5, "lower", 0.10) == "within bound"


def test_compare_gain_rule():
    parent = [100.0 + (index % 3) for index in range(10)]
    assert compare.gain(parent, [90.0] * 10, "lower")
    assert not compare.gain(parent, [110.0] * 10, "lower")
    assert compare.gain(parent, [110.0] * 10, "higher")
    # Nine pairs is too few, and eight wins in ten too few.
    assert not compare.gain(parent[:9], [90.0] * 9, "lower")
    assert not compare.gain(parent, [90.0] * 8 + [200.0] * 2, "lower")
    # A gap inside the parent's own quartile spread is no gain.
    assert not compare.gain(parent, [99.9] * 10, "lower")


def test_compare_command(tmp_path, capsys):
    def record(scale):
        metrics = {
            entry["name"]: {"value": 100.0 * scale, "samples": [100.0 * scale] * 3}
            for entry in BENCHMARK["end_to_end"]
        }
        return json.dumps({"workload": "rr-stream", "trace": 0, "metrics": metrics})

    parent, same, worse = (tmp_path / name for name in ("a", "b", "c"))
    parent.write_text(record(1.0) + "\n")
    same.write_text(record(1.0) + "\n")
    worse.write_text(record(1.5) + "\n")
    assert compare.main([str(parent), str(same)]) == 0
    assert "regressed" not in capsys.readouterr().out
    assert compare.main([str(parent), str(worse)]) == 1
    assert "regressed" in capsys.readouterr().out
