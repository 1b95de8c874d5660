"""Collection-service throughput: reports/sec and MB/sec vs concurrency.

The network collector is the layer that must "serve heavy traffic from
millions of users", so this benchmark measures what one
:class:`~repro.server.CollectionServer` actually sustains on localhost
sockets as the simulated client fleet grows: a *fast* protocol whose
aggregation is a cheap sum (``InpRR``) and a *heavy* one whose decode
dominates (``InpOLH``, ``O(N * 2^d)`` support counting per frame).  Frames
are pre-encoded so the numbers isolate the service path — framing,
handshake, socket I/O, shard submit — from client-side encoding cost.

Run with:  PYTHONPATH=src python benchmarks/bench_server_throughput.py [--smoke]

Results merge into ``BENCH_server.json`` (schema ``bench-server/v1``),
following the ``BENCH_kernels.json`` profile layout, so CI and future PRs
have a machine-readable throughput baseline to compare against.  Every
cell records best-of-``repeats`` throughput plus the per-repeat samples
and their standard deviation, so a reader can tell a real regression from
scheduler noise.

``--check`` turns the run into a regression gate (mirroring
``scripts/run_benchmarks.py``): it fails when any (protocol, concurrency)
cell's fresh reports/sec falls below half the checked-in baseline's.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.core.domain import Domain
from repro.datasets.synthetic import uniform_dataset
from repro.protocols.registry import make_protocol
from repro.server import CollectionServer, LoadGenerator

REPO_ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "bench-server/v1"
LN3 = float(np.log(3.0))

#: ``full`` is the acceptance baseline recorded in BENCH_server.json;
#: ``smoke`` is the CI-sized run.
PROFILES = {
    "full": {
        "population": 40_000,
        "dimension": 8,
        "batch_size": 500,
        "shards": 4,
        "concurrencies": (1, 4, 16, 64),
        "repeats": 3,
    },
    "smoke": {
        "population": 6_000,
        "dimension": 6,
        "batch_size": 300,
        "shards": 2,
        "concurrencies": (1, 8),
        "repeats": 2,
    },
}

#: A cell regresses when its reports/sec falls below baseline / 2.
REGRESSION_FACTOR = 2.0

#: The resilience row is gated on *relative* overhead, not absolute
#: throughput: turning on the durability features (client spool with
#: fsync, server checkpoints with integrity digests) must cost less than
#: this fraction of the plain configuration's reports/sec.
RESILIENCE_OVERHEAD_LIMIT_PERCENT = 10.0

#: The metrics row prices the observability layer the same way: with
#: the registry enabled (the default) the service path pays a counter
#: increment per frame/report plus span timing on the ingest stages,
#: and the median paired-round overhead must stay under this fraction
#: of the disabled arm's reports/sec — "observable by default" only
#: holds if default costs almost nothing.
METRICS_OVERHEAD_LIMIT_PERCENT = 5.0

#: One protocol whose aggregation is a cheap vector sum, one whose decode
#: dominates the server's per-frame work.
PROTOCOLS = ("InpRR", "InpOLH")


async def _collect_once(
    spec,
    domain,
    frames,
    shards,
    concurrency,
    expected,
    server_kwargs=None,
    fleet_kwargs=None,
):
    server = CollectionServer(
        spec, domain, port=0, shards=shards, **(server_kwargs or {})
    )
    await server.start()
    fleet = LoadGenerator(
        spec,
        domain,
        "127.0.0.1",
        server.port,
        frames=frames,
        num_clients=concurrency,
        **(fleet_kwargs or {}),
    )
    report = await fleet.run()
    await server.stop()
    if report.acked_frames != len(frames) or report.acked_reports != expected:
        raise RuntimeError("fleet lost frames; numbers would be meaningless")
    return report


def bench_protocol(name, params):
    protocol = make_protocol(name, LN3, 2)
    domain = Domain.binary(params["dimension"])
    rng = np.random.default_rng(20180610)
    dataset = uniform_dataset(
        params["population"], params["dimension"], rng=rng
    )
    frames = LoadGenerator.frames_for_dataset(
        protocol.spec(), dataset, params["batch_size"], rng=rng
    )
    total_bytes = sum(len(frame) for frame in frames)
    results = {}
    for concurrency in params["concurrencies"]:
        best = None
        samples = []
        for _ in range(params["repeats"]):
            report = asyncio.run(
                _collect_once(
                    protocol.spec(),
                    domain,
                    frames,
                    params["shards"],
                    concurrency,
                    params["population"],
                )
            )
            samples.append(report.reports_per_second)
            if best is None or report.duration_seconds < best.duration_seconds:
                best = report
        stddev = float(np.std(samples))
        results[str(concurrency)] = {
            "duration_seconds": best.duration_seconds,
            "reports_per_second": best.reports_per_second,
            "reports_per_second_stddev": stddev,
            "reports_per_second_samples": samples,
            "megabytes_per_second": best.megabytes_per_second,
            "params": {
                "clients": concurrency,
                "frames": len(frames),
                "bytes": total_bytes,
                "reports": best.acked_reports,
                "repeats": params["repeats"],
                "shards": params["shards"],
            },
        }
        print(
            f"  {name:8s} clients={concurrency:<3d} "
            f"{best.reports_per_second:>12,.0f} reports/s "
            f"(±{stddev:>10,.0f} over {params['repeats']} repeat(s))  "
            f"{best.megabytes_per_second:>8.2f} MB/s"
        )
    return results


def bench_resilience(params):
    """Price the durability features against the plain configuration.

    Two arms over the same pre-encoded InpRR frames at the profile's
    highest concurrency: *plain* (exactly the configuration the
    throughput cells run) and *resilient* (the fleet spools every group
    to a fsync'd on-disk log under idempotency tokens, and the server
    writes digest-stamped durable checkpoints).  Each resilient repeat
    gets a fresh spool directory so nothing replays from a previous
    repeat's commits, which would fake a speedup.

    The comparison is a *ratio* on a machine whose absolute throughput
    can swing ±30% between adjacent runs (CI schedulers, cgroup
    throttling, noisy neighbors).  The arms run interleaved over
    ``repeats + 4`` rounds, alternating which arm goes first (ABBA) so
    steady drift cannot systematically penalize one arm, and the
    headline overhead compares each arm's *best* round: per-round
    pairwise ratios are a lottery at this noise level (the recorded
    ``round_overheads`` show the spread), but best-of-N converges to
    each arm's uncontended capability, making the ratio of bests the
    stable estimate.

    Two further methodology choices keep the row about the durability
    *machinery* rather than the host it happens to run on:

    * The workload is floored at 1.92M reports.  The spool's cost per
      client is a fixed handful of syscalls (open, write, fsync, close)
      that scales with the fleet size, not the report count; against a
      short run those fixed costs alone read as a 20-50% "overhead"
      that amortizes to low single digits once the run is a couple of
      seconds long.
    * Spool and checkpoint scratch lands on the fastest writable local
      scratch (``/dev/shm`` when present, else the default tempdir).
      Sync latency varies ~100x across environments — network mounts
      such as 9p charge milliseconds per file operation — and a row
      gated at single-digit percent must not measure the scratch
      volume.
    """
    protocol = make_protocol("InpRR", LN3, 2)
    domain = Domain.binary(params["dimension"])
    population = max(params["population"], 1_920_000)
    repeats = params["repeats"] + 4
    rng = np.random.default_rng(20180610)
    dataset = uniform_dataset(population, params["dimension"], rng=rng)
    frames = LoadGenerator.frames_for_dataset(
        protocol.spec(), dataset, params["batch_size"], rng=rng
    )
    concurrency = max(params["concurrencies"])

    def run_once(server_kwargs=None, fleet_kwargs=None):
        report = asyncio.run(
            _collect_once(
                protocol.spec(),
                domain,
                frames,
                params["shards"],
                concurrency,
                population,
                server_kwargs=server_kwargs,
                fleet_kwargs=fleet_kwargs,
            )
        )
        return report.reports_per_second

    plain_samples = []
    resilient_samples = []
    round_overheads = []
    scratch_base = "/dev/shm" if os.access("/dev/shm", os.W_OK) else None
    with tempfile.TemporaryDirectory(
        prefix="bench-resilience-", dir=scratch_base
    ) as scratch:
        scratch_dir = Path(scratch)
        for round_index in range(repeats):
            checkpoint_dir = scratch_dir / f"ckpt-{round_index}"
            checkpoint_dir.mkdir()

            def run_resilient():
                return run_once(
                    server_kwargs={"checkpoint_dir": checkpoint_dir},
                    fleet_kwargs={
                        "token_prefix": f"bench-{round_index}",
                        "spool_dir": scratch_dir / f"spool-{round_index}",
                    },
                )

            # ABBA ordering: alternate which arm runs first so a machine
            # that is steadily speeding up or slowing down biases half
            # the rounds one way and half the other, cancelling in the
            # median instead of accumulating.
            if round_index % 2 == 0:
                plain_rps = run_once()
                resilient_rps = run_resilient()
            else:
                resilient_rps = run_resilient()
                plain_rps = run_once()
            plain_samples.append(plain_rps)
            resilient_samples.append(resilient_rps)
            round_overheads.append(
                (plain_rps - resilient_rps) / plain_rps * 100.0
            )
    # The headline ratio compares each arm's *best* round: on a
    # multi-tenant machine whose throughput swings ±30% between adjacent
    # runs, a per-round pairwise ratio is a lottery (the recorded
    # round_overheads show the spread), but each arm's best-of-N
    # converges to its uncontended capability, so the ratio of bests is
    # the stable estimate of what durability actually costs.
    plain = max(plain_samples)
    resilient = max(resilient_samples)
    overhead_percent = (plain - resilient) / plain * 100.0
    print(
        f"  resilience clients={concurrency:<3d} "
        f"plain {plain:>12,.0f} reports/s, durable {resilient:>12,.0f} "
        f"reports/s ({overhead_percent:+.1f}% overhead)"
    )
    return {
        "protocol": "InpRR",
        "plain_reports_per_second": plain,
        "plain_samples": plain_samples,
        "resilient_reports_per_second": resilient,
        "resilient_samples": resilient_samples,
        "round_overheads": round_overheads,
        "overhead_percent": overhead_percent,
        "params": {
            "clients": concurrency,
            "frames": len(frames),
            "reports": population,
            "repeats": repeats,
            "shards": params["shards"],
            "checkpoint_digests": True,
        },
    }


def bench_metrics(params):
    """Price the observability layer against a metrics-off run.

    Two arms over the same pre-encoded InpRR frames at the profile's
    highest concurrency: *instrumented* (the default — every frame and
    report bumps registry counters and the ingest stages run under
    timing spans) and *disabled* (``set_enabled(False)``, which turns
    every mutator into a no-op and hands out a shared null span).  The
    toggle is in-process, so both arms share the same interpreter,
    sockets, and warmed caches; nothing but the metrics layer differs.

    The workload and interleaving mirror the resilience row (floored at
    1.92M reports, ``repeats + 4`` ABBA-ordered rounds — see
    :func:`bench_resilience`), but the headline estimator differs, and
    deliberately so.  The resilience arms change the I/O pattern
    (fsync'd spools, checkpoint writes), so only each arm's best round
    reflects its uncontended capability; the metrics arms run the *same*
    I/O with and without some in-process bookkeeping, making two
    adjacent rounds a matched pair — whatever regime the host is in
    (noisy neighbor, cgroup throttle) hits both arms of a pair alike.
    The headline is therefore the *median* of the per-round paired
    overheads: robust to the multi-second regime shifts this gate's
    history shows (per-round swings of ±30% while the median sits
    within ±2%), where a ratio of per-arm bests inherits whichever
    arm got luckier inside the fast regime.  Both arms' raw samples
    and bests are recorded alongside for the reader.
    """
    from repro.observability import metrics_enabled, set_enabled

    protocol = make_protocol("InpRR", LN3, 2)
    domain = Domain.binary(params["dimension"])
    population = max(params["population"], 1_920_000)
    repeats = params["repeats"] + 4
    rng = np.random.default_rng(20180610)
    dataset = uniform_dataset(population, params["dimension"], rng=rng)
    frames = LoadGenerator.frames_for_dataset(
        protocol.spec(), dataset, params["batch_size"], rng=rng
    )
    concurrency = max(params["concurrencies"])

    def run_once(enabled):
        set_enabled(enabled)
        try:
            report = asyncio.run(
                _collect_once(
                    protocol.spec(),
                    domain,
                    frames,
                    params["shards"],
                    concurrency,
                    population,
                )
            )
        finally:
            set_enabled(True)
        return report.reports_per_second

    was_enabled = metrics_enabled()
    disabled_samples = []
    instrumented_samples = []
    round_overheads = []
    try:
        for round_index in range(repeats):
            if round_index % 2 == 0:
                disabled_rps = run_once(False)
                instrumented_rps = run_once(True)
            else:
                instrumented_rps = run_once(True)
                disabled_rps = run_once(False)
            disabled_samples.append(disabled_rps)
            instrumented_samples.append(instrumented_rps)
            round_overheads.append(
                (disabled_rps - instrumented_rps) / disabled_rps * 100.0
            )
    finally:
        set_enabled(was_enabled)
    disabled = max(disabled_samples)
    instrumented = max(instrumented_samples)
    overhead_percent = float(np.median(round_overheads))
    print(
        f"  metrics    clients={concurrency:<3d} "
        f"off {disabled:>14,.0f} reports/s, on {instrumented:>14,.0f} "
        f"reports/s best-of-{repeats} "
        f"({overhead_percent:+.1f}% median paired overhead)"
    )
    return {
        "protocol": "InpRR",
        "disabled_reports_per_second": disabled,
        "disabled_samples": disabled_samples,
        "instrumented_reports_per_second": instrumented,
        "instrumented_samples": instrumented_samples,
        "round_overheads": round_overheads,
        "overhead_percent": overhead_percent,
        "params": {
            "clients": concurrency,
            "frames": len(frames),
            "reports": population,
            "repeats": repeats,
            "shards": params["shards"],
        },
    }


def load_report(path: Path) -> dict:
    with path.open() as handle:
        report = json.load(handle)
    if report.get("schema") != SCHEMA:
        raise SystemExit(
            f"{path}: expected schema {SCHEMA!r}, got {report.get('schema')!r}"
        )
    return report


def check_regressions(result: dict, baseline_profile: dict) -> list:
    """Compare fresh per-cell reports/sec against the recorded baseline."""
    failures = []
    for name, cells in result["protocols"].items():
        recorded_cells = baseline_profile.get("protocols", {}).get(name, {})
        for concurrency, entry in cells.items():
            recorded = recorded_cells.get(concurrency)
            if recorded is None:
                continue
            floor = recorded["reports_per_second"] / REGRESSION_FACTOR
            if entry["reports_per_second"] < floor:
                failures.append(
                    f"{name} clients={concurrency}: "
                    f"{entry['reports_per_second']:,.0f} reports/s fell below "
                    f"{floor:,.0f} (baseline "
                    f"{recorded['reports_per_second']:,.0f} / "
                    f"{REGRESSION_FACTOR:g})"
                )
    resilience = result.get("resilience")
    if resilience is not None:
        overhead = resilience["overhead_percent"]
        if overhead > RESILIENCE_OVERHEAD_LIMIT_PERCENT:
            failures.append(
                f"resilience: durability overhead {overhead:.1f}% exceeds "
                f"{RESILIENCE_OVERHEAD_LIMIT_PERCENT:g}% "
                f"({resilience['plain_reports_per_second']:,.0f} plain vs "
                f"{resilience['resilient_reports_per_second']:,.0f} durable "
                f"reports/s)"
            )
    metrics = result.get("metrics")
    if metrics is not None:
        overhead = metrics["overhead_percent"]
        if overhead > METRICS_OVERHEAD_LIMIT_PERCENT:
            failures.append(
                f"metrics: observability overhead {overhead:.1f}% (median "
                f"paired) exceeds {METRICS_OVERHEAD_LIMIT_PERCENT:g}% "
                f"(best rounds: {metrics['disabled_reports_per_second']:,.0f} "
                f"off vs {metrics['instrumented_reports_per_second']:,.0f} on "
                f"reports/s)"
            )
    return failures


def run_profile(profile_name):
    params = dict(PROFILES[profile_name])
    print(f"profile {profile_name}: {params}")
    protocols = {}
    for name in PROTOCOLS:
        protocols[name] = bench_protocol(name, params)
    return {
        "params": {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in params.items()
        },
        "protocols": protocols,
        "resilience": bench_resilience(params),
        "metrics": bench_metrics(params),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="run the CI-sized smoke profile"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_server.json",
        help="JSON file to write/merge results into",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="checked-in baseline JSON to gate against (with --check)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail if any cell's reports/sec regressed >2x vs the baseline",
    )
    arguments = parser.parse_args(argv)
    profile_name = "smoke" if arguments.smoke else "full"

    # Snapshot the baseline *before* any writing: with the default paths
    # the output and the baseline are the same file, and gating against
    # the just-written results would make the check vacuous.
    baseline_profile = None
    baseline_path = None
    if arguments.check:
        baseline_path = arguments.baseline or (REPO_ROOT / "BENCH_server.json")
        baseline = load_report(baseline_path)
        baseline_profile = baseline["profiles"].get(profile_name)
        if baseline_profile is None:
            raise SystemExit(
                f"{baseline_path} records no {profile_name!r} profile to "
                f"gate against"
            )

    result = run_profile(profile_name)

    report = {"schema": SCHEMA, "profiles": {}}
    if arguments.output.exists():
        with arguments.output.open() as handle:
            existing = json.load(handle)
        if existing.get("schema") == SCHEMA:
            report = existing
    report["profiles"][profile_name] = result
    with arguments.output.open("w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {arguments.output}")

    if arguments.check:
        failures = check_regressions(result, baseline_profile)
        if failures:
            print(
                "FAIL: server throughput regressed >2x vs "
                f"{baseline_path}:\n  " + "\n  ".join(failures),
                file=sys.stderr,
            )
            return 1
        print(f"regression gate passed against {baseline_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
