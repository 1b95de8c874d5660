"""End-to-end benchmark of the LDP collection path (see README.md).

    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE.jsonl]

Run from the repository root.  Prints one line per metric (value, unit and,
where there are per-pass samples, their quartiles) and, as the last line, a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  ``--out`` appends the full record of each workload run
(per-pass samples, quartiles, provenance) as one JSON line, the input that
``compare.py`` reads.

Exits 1 when any pass disagrees with the in-process reference, and 2,
without a result, when the library sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[2]
#: Collector checkpoints go to the real disk inside the checkout, never to a
#: tmpfs, so the per-group fsync is paid as it is in a deployment.
SCRATCH_ROOT = ROOT / ".e2e-scratch"

if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    print(f"cannot find the library sources under {ROOT / 'src'}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.backends import resolve_backend  # noqa: E402
from repro.experiments.metrics import mean_total_variation  # noqa: E402
from repro.heavyhitters import exact_top_k, precision_recall  # noqa: E402
from repro.observability import set_enabled  # noqa: E402
from repro.server import LoadGenerator  # noqa: E402
from repro.server.handshake import spec_hash  # noqa: E402

from harness import (  # noqa: E402
    CALIBRATION_REFERENCE_SECONDS,
    PassResult,
    answer,
    calibrate,
    reference_session,
    run_pass,
)
from layers import REPORTED_SPANS, replay, server_counts, span_self_seconds  # noqa: E402
from workloads import BATCH_SIZE, BY_NAME, RELEASE_WIDTHS, WORKLOADS, Workload  # noqa: E402

DEFAULT_SEED = 20180610
DEFAULT_SECONDS = 20.0

#: Metric name -> unit, in print order.  BENCHMARK.json lists the same names.
END_TO_END = {
    "ingest_reports_per_s": "1/s",
    "cpu_us_per_report": "us",
    "release_s": "s",
    "ack_p50_ms": "ms",
    "setup_s": "s",
    "rss_growth_mb": "MiB",
    "wire_bytes_per_report": "bytes",
}
PER_LAYER = {
    "protocols.encode_us_per_report": "us",
    "protocols.serialize_us_per_report": "us",
    "server.framing_us_per_report": "us",
    "protocols.decode_us_per_report": "us",
    "service.fold_us_per_report": "us",
    "service.commit_ms_per_group": "ms",
    "service.commit_bytes": "bytes",
    "topology.pull_ms": "ms",
    "topology.state_bytes": "bytes",
    "topology.restore_ms": "ms",
    "topology.merge_ms": "ms",
    "service.snapshot_ms": "ms",
    "release.query_ms": "ms",
    "heavyhitters.discover_ms": "ms",
    "collector.cpu_us_per_report": "us",
    "unattributed_us_per_report": "us",
    "framing.share": "fraction",
    "decode.share": "fraction",
    "fold.share": "fraction",
    "commit.share": "fraction",
    "unattributed.share": "fraction",
    **{f"span.{name}.self_us_per_report": "us" for name in REPORTED_SPANS},
    "loadgen.cpu_us_per_report": "us",
    "loadgen.ack_p99_ms": "ms",
    "observability.overhead_pct": "%",
    "protocols.mean_tv": "tv",
    "server.frames": "count",
    "server.connections": "count",
    "service.commits": "count",
    "wire.bytes": "bytes",
    "loadgen.retries": "count",
    "server.rejected": "count",
}

#: Client encodes per run; setup_s takes their median.
SETUP_REPEATS = 3
#: The fewest timed passes a run makes, however short ``--seconds`` is.
MIN_PASSES = 3
#: One round of a traced run's socket passes: untraced and traced, ABBA.
TRACE_ROUND = (False, True, True, False)
#: How strongly the set-up and the release follow the calibration probe.
#: Both are npz and Python work on every workload (encode plus
#: ``to_bytes``; pull, restore and queries), the kind of work the probe
#: does, so they follow it in full.
PROBE_WORK_EXPONENT = 1.0


def summary(samples: Sequence[float]) -> Dict[str, object]:
    """Median and quartiles of per-pass samples, samples kept."""
    values = [float(value) for value in samples]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "samples": values}


def pooled(samples: Sequence[float], percentile: float, scale: float) -> Dict[str, object]:
    """A percentile of pooled samples, with how many samples lie beyond it."""
    values = np.asarray(samples, dtype=np.float64) * scale
    value = float(np.percentile(values, percentile))
    return {"value": value, "n": int(values.size), "beyond": int((values > value).sum())}


def _per_report(result: PassResult, seconds: float) -> float:
    return seconds * 1e6 / result.acked_reports


# ---------------------------------------------------------------------- #
# provenance


def _git(*args: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(ROOT), *args],
        capture_output=True,
        text=True,
        timeout=30,
        check=True,
    )
    return done.stdout.strip()


def _filesystem_type(path: Path) -> str:
    best, kind = "", "unknown"
    with open("/proc/mounts") as handle:
        for line in handle:
            mount, fstype = line.split()[1:3]
            inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
            if inside and len(mount) >= len(best):
                best, kind = mount, fstype
    return kind


def provenance(workload: Workload, seed: int, trace: bool) -> Dict[str, object]:
    sha = dirty = None
    # Only a checkout that is itself a repository: git would otherwise walk
    # up and report whatever repository encloses it.
    if (ROOT / ".git").exists():
        try:
            sha = _git("rev-parse", "HEAD")
            dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "spec_hash": spec_hash(workload.spec().canonical()),
        "kernel_backend": resolve_backend().name,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "scratch_fs": _filesystem_type(SCRATCH_ROOT),
        "metrics": "on in traced passes and the replay" if trace else "off",
    }


# ---------------------------------------------------------------------- #
# one workload


def pass_ok(result: PassResult, reference, population: int) -> bool:
    """The correctness gate for one pass.

    Every group ACKed with the right counts and nothing retried or
    rejected, every report ACKed, and a release equal to the in-process
    reference's, bit for bit.
    """
    return (
        result.error is None
        and result.failed_groups == 0
        and result.acked_reports == population
        and result.release is not None
        and result.release.same_as(reference)
    )


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    scratch: Path,
    *,
    setup_repeats: int = SETUP_REPEATS,
    min_passes: int = MIN_PASSES,
) -> Dict[str, object]:
    """Set up, run the socket passes, check them, and compute the metrics."""
    spec, domain = workload.spec(), workload.domain()
    dataset = workload.dataset(seed)
    frames = None
    encode_seconds = []
    probe = calibrate()
    for _ in range(setup_repeats):
        started = time.perf_counter()
        encoded = LoadGenerator.frames_for_dataset(
            spec, dataset, BATCH_SIZE, rng=workload.encode_rng(seed)
        )
        encode_seconds.append(time.perf_counter() - started)
        if frames is not None and encoded != frames:
            raise RuntimeError("the client encoding is not deterministic per seed")
        frames = encoded
    before, probe = probe, calibrate()
    setup_probe_seconds = (before + probe) / 2

    passes: List[PassResult] = []

    def one_pass(traced: bool) -> None:
        nonlocal probe
        result = run_pass(
            workload, spec, domain, frames, scratch, index=len(passes), traced=traced
        )
        before, probe = probe, calibrate()
        result.probe_seconds = (before + probe) / 2
        passes.append(result)

    one_pass(False)  # warm-up
    started = time.perf_counter()
    while len(passes) <= min_passes or time.perf_counter() - started < seconds:
        for traced in TRACE_ROUND if trace else (False,):
            one_pass(traced)
    measured = passes[1:]

    # In-process kernel work only from here on: collectors are forked, and
    # the threaded kernel backend must not have started its pool before.
    set_enabled(trace)
    try:
        session = reference_session(spec, domain, frames)
        estimator = session.snapshot()
        reference = answer(estimator, session.num_reports)
        verdicts = [pass_ok(result, reference, workload.population) for result in passes]
        record: Dict[str, object] = {
            "workload": workload.name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "provenance": provenance(workload, seed, trace),
            "passes": len(measured),
            "attempted": sum(result.groups for result in measured),
            # A pass whose release is wrong fails every group it sent.
            "failed": sum(
                result.failed_groups if good else result.groups
                for result, good in zip(measured, verdicts[1:])
            ),
            "correct": all(verdicts),
            "errors": [result.error for result in passes if result.error],
            "accuracy": accuracy(workload, dataset, estimator, reference),
        }
        # Metrics come from the passes that ran to the end; a run with a
        # failed pass is reported as incorrect all the same.
        completed = [result for result in measured if result.error is None]
        if not completed:
            raise RuntimeError(f"every pass failed: {record['errors']}")
        if trace:
            layer = replay(workload, spec, domain, dataset, seed, frames, scratch)
            record["correct"] = record["correct"] and layer.pop("release").same_as(reference)
            record["metrics"], record["detail"] = per_layer(workload, completed, layer)
            record["metrics"]["protocols.mean_tv"] = {
                "value": record["accuracy"]["mean_tv"]
            }
        else:
            record["metrics"], record["detail"] = end_to_end(
                workload, completed, encode_seconds, setup_probe_seconds, passes
            )
    finally:
        set_enabled(False)
    return record


def accuracy(workload, dataset, estimator, reference) -> Dict[str, float]:
    """Error of the release against the exact answers of the same records."""
    scores = {"mean_tv": mean_total_variation(dataset, estimator, widths=RELEASE_WIDTHS)}
    if reference.discovery is not None:
        exact = exact_top_k(dataset, workload.options["top_k"])
        scores["hh_precision"], scores["hh_recall"] = precision_recall(
            reference.discovery.indices, exact
        )
    return scores


def speed_scale(probe_seconds: float, exponent: float) -> float:
    """Factor quoting a time taken beside a ``probe_seconds`` calibration at
    the reference machine speed (rates are divided by it)."""
    return (CALIBRATION_REFERENCE_SECONDS / probe_seconds) ** exponent


def end_to_end(workload, measured, encode_seconds, setup_probe_seconds, passes):
    """The end-to-end metrics, each time quoted at the reference machine speed.

    A pass's times are scaled by the calibration probes around that pass,
    and its rates by the inverse; the encodes by the probes around the
    set-up.  Ingest-phase times follow the probe by the workload's
    ``speed_exponent``; the set-up and the release, by
    ``PROBE_WORK_EXPONENT``.  ``detail["raw"]`` keeps the values as timed.
    """
    scales = [speed_scale(r.probe_seconds, workload.speed_exponent) for r in measured]
    raw = {
        "ingest_reports_per_s": [r.acked_reports / r.ingest_seconds for r in measured],
        "cpu_us_per_report": [_per_report(r, r.collector_cpu_seconds) for r in measured],
        "release_s": [r.release_seconds for r in measured],
    }
    gaps = [gap for r in measured for gap in r.ack_gaps_seconds]
    scaled_gaps = [
        gap * factor for r, factor in zip(measured, scales) for gap in r.ack_gaps_seconds
    ]
    encode = statistics.median(encode_seconds)
    spawns = [result.spawn_seconds for result in passes]
    # Encode every frame, plus spawn-to-ready of one pass's collectors.
    setup = encode * speed_scale(
        setup_probe_seconds, PROBE_WORK_EXPONENT
    ) + statistics.median(
        spawn * speed_scale(result.probe_seconds, PROBE_WORK_EXPONENT)
        for spawn, result in zip(spawns, passes)
    )
    detail: Dict[str, object] = {
        "probe_s": summary([result.probe_seconds for result in measured]),
        "setup_probe_s": setup_probe_seconds,
        "scale": summary(scales),
        "raw": {
            **{name: summary(values) for name, values in raw.items()},
            "ack_p50_ms": pooled(gaps, 50, 1e3),
            "setup_s": encode + statistics.median(spawns),
        },
        "ack_p99_ms": pooled(scaled_gaps, 99, 1e3),
        "setup_encode_s": summary(encode_seconds),
        "setup_spawn_s": summary(spawns),
        "loadgen_cpu_us_per_report": summary(
            [_per_report(result, result.loadgen_cpu_seconds) for result in measured]
        ),
    }
    metrics = {
        "ingest_reports_per_s": summary(
            [rate / factor for rate, factor in zip(raw["ingest_reports_per_s"], scales)]
        ),
        "cpu_us_per_report": summary(
            [cpu * factor for cpu, factor in zip(raw["cpu_us_per_report"], scales)]
        ),
        "release_s": summary(
            [
                r.release_seconds * speed_scale(r.probe_seconds, PROBE_WORK_EXPONENT)
                for r in measured
            ]
        ),
        "ack_p50_ms": {"value": pooled(scaled_gaps, 50, 1e3)["value"]},
        "setup_s": {"value": setup},
        # The mean: on olh-stream a pass's growth falls on one of three
        # levels 1.75 MiB apart, so a run's median jumps between them.
        "rss_growth_mb": {
            **summary([result.rss_growth_mb for result in measured]),
            "value": statistics.fmean(result.rss_growth_mb for result in measured),
        },
        "wire_bytes_per_report": summary(
            [result.wire_bytes / result.acked_reports for result in measured]
        ),
    }
    return metrics, detail


def per_layer(workload, measured, layer):
    traced = [result for result in measured if result.metrics_on]
    plain = [result for result in measured if not result.metrics_on]
    reports = workload.population
    median = statistics.median

    def ingest_rate(results):
        return median(result.acked_reports / result.ingest_seconds for result in results)

    collector_cpu = median(
        _per_report(result, result.collector_cpu_seconds) for result in traced
    )
    ack_p99 = pooled([gap for result in plain for gap in result.ack_gaps_seconds], 99, 1e3)
    counts = [server_counts(result.stats_before, result.stats_after) for result in traced]
    commits = median(count["commits"] for count in counts)
    # Collector CPU per report of each replayed stage; commits are costed
    # at the replay's CPU per commit times the commits collectors made.
    stages = {
        "framing": layer["framing"] * 1e6 / reports,
        "decode": layer["decode"] * 1e6 / reports,
        "fold": layer["fold"] * 1e6 / reports,
        "commit": layer["commit_cpu"] / layer["commits"] * commits * 1e6 / reports,
    }
    unattributed = collector_cpu - sum(stages.values())
    spans = [span_self_seconds(result.stats_before, result.stats_after) for result in traced]
    span_self = {
        name: median(
            per_pass.get(name, {"self_seconds": 0.0})["self_seconds"] * 1e6 / reports
            for per_pass in spans
        )
        for name in sorted({name for per_pass in spans for name in per_pass})
    }
    values = {
        "protocols.encode_us_per_report": layer["encode"] * 1e6 / reports,
        "protocols.serialize_us_per_report": layer["serialize"] * 1e6 / reports,
        "server.framing_us_per_report": stages["framing"],
        "protocols.decode_us_per_report": stages["decode"],
        "service.fold_us_per_report": stages["fold"],
        "service.commit_ms_per_group": layer["commit_ms_per_group"],
        "service.commit_bytes": layer["commit_bytes"],
        "topology.pull_ms": median(result.pull_seconds for result in measured) * 1e3,
        "topology.state_bytes": layer["state_bytes"],
        "topology.restore_ms": layer["restore_ms"],
        "topology.merge_ms": layer["merge_ms"],
        "service.snapshot_ms": layer["snapshot_ms"],
        "release.query_ms": layer["query_ms"],
        "heavyhitters.discover_ms": layer["discover_ms"],
        "collector.cpu_us_per_report": collector_cpu,
        "unattributed_us_per_report": unattributed,
        **{f"{stage}.share": cost / collector_cpu for stage, cost in stages.items()},
        "unattributed.share": 1.0 - sum(stages.values()) / collector_cpu,
        **{
            f"span.{name}.self_us_per_report": span_self.get(name, 0.0)
            for name in REPORTED_SPANS
        },
        "loadgen.cpu_us_per_report": median(
            _per_report(result, result.loadgen_cpu_seconds) for result in measured
        ),
        "loadgen.ack_p99_ms": ack_p99["value"],
        "observability.overhead_pct": (1.0 - ingest_rate(traced) / ingest_rate(plain))
        * 100.0,
        "server.frames": median(count["frames"] for count in counts),
        "server.connections": median(count["connections"] for count in counts),
        "service.commits": commits,
        "wire.bytes": median(count["bytes"] for count in counts),
        "loadgen.retries": sum(result.retries for result in measured),
        "server.rejected": sum(count["rejected"] for count in counts),
    }
    detail = {
        "scale": summary(
            [speed_scale(r.probe_seconds, workload.speed_exponent) for r in measured]
        ),
        "ack_p99_ms": ack_p99,
        "span_self_us_per_report": span_self,
        "traced_passes": len(traced),
        "untraced_passes": len(plain),
        "loadgen_below_collectors": values["loadgen.cpu_us_per_report"] < collector_cpu,
    }
    return {name: {"value": value} for name, value in values.items()}, detail


# ---------------------------------------------------------------------- #
# the command


def _format(value: float) -> str:
    if float(value).is_integer() or abs(value) >= 1e5:
        return f"{value:,.0f}"
    return f"{value:,.4f}" if abs(value) >= 1 else f"{value:.4g}"


def print_record(record: Dict[str, object], units: Dict[str, str]) -> None:
    status = "correct" if record["correct"] else "INCORRECT"
    print(
        f"== {record['workload']}  seed {record['seed']}  {record['passes']} passes  "
        f"{record['failed']}/{record['attempted']} groups failed  {status}"
    )
    for name, unit in units.items():
        metric = record["metrics"][name]
        spread = ""
        if "q1" in metric:
            spread = f"  [q1 {_format(metric['q1'])}, q3 {_format(metric['q3'])}]"
        print(f"  {name:48s} {_format(metric['value']):>16s} {unit}{spread}")
    scores = ", ".join(f"{name} {value:.4g}" for name, value in record["accuracy"].items())
    print(f"  accuracy: {scores}")
    for error in record["errors"]:
        print(f"  error: {error.splitlines()[-1]}")


def run_all(arguments) -> int:
    """Every workload, each in a process of its own.

    One process per workload keeps the fork-before-threads order of
    ``run_workload``: a traced run's in-process replay may start the
    threaded kernel backend's pool, after which no collector may be forked.
    """
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            f"--workload={workload.name}",
            f"--seed={arguments.seed}",
            f"--seconds={arguments.seconds}",
            f"--trace={arguments.trace}",
        ]
        if arguments.out is not None:
            command.append(f"--out={arguments.out}")
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        if child.returncode not in (0, 1) or not lines:
            print(child.stdout, end="")
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        result["correct"] = result["correct"] and one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        for name, metric in one["metrics"].items():
            result["metrics"][f"{workload.name}/{name}"] = metric
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", default="all", choices=["all", *BY_NAME], help="workload to run"
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS, help="timed passes per run"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append each run's record to this file")
    arguments = parser.parse_args(argv)
    if arguments.workload == "all":
        return run_all(arguments)

    trace = bool(arguments.trace)
    units = PER_LAYER if trace else END_TO_END
    SCRATCH_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_ROOT))
    try:
        record = run_workload(
            BY_NAME[arguments.workload], arguments.seed, arguments.seconds, trace, scratch
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it

    if arguments.out is not None:
        with arguments.out.open("a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print_record(record, units)
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name]["value"], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
