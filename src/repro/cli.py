"""Command-line interface: experiments plus the collection-service round trip.

Usage::

    python -m repro.cli list
    python -m repro.cli run fig4 --quick
    python -m repro.cli run table2 --output table2.txt
    python -m repro.cli run fig9 --full --json fig9.json

``run`` executes one experiment module (quick preset by default), prints the
rendered text table, and can additionally persist sweep-style results to JSON
for later analysis or plotting.

The service subcommands drive a full client → bytes → server round trip from
the shell.  ``encode`` plays the client population (simulated from one of
the named datasets) and writes serialized report frames; ``aggregate`` plays
the server, feeding the frames to an
:class:`~repro.service.AggregationSession` and printing the estimated
marginals.  The two halves only share the spec file — exactly the
out-of-band contract of a deployed collector::

    python -m repro.cli encode --protocol InpHT --epsilon 1.1 --width 2 \\
        --dataset taxi -n 10000 -d 8 --seed 7 --batch-size 2500 \\
        --spec-out spec.json \\
      | python -m repro.cli aggregate --spec spec.json --dimension 8 \\
            --json marginals.json

``aggregate --checkpoint`` persists the session afterwards and ``--restore``
resumes one, so an interrupted collection continues bit-for-bit.

``serve`` and ``load`` replace the shell pipe with real sockets: ``serve``
runs the asyncio :class:`~repro.server.CollectionServer` (HELLO spec
handshake, sharded sessions, periodic + shutdown checkpoints, graceful
SIGINT/SIGTERM or ``--stop-after-reports`` shutdown printing the
estimates), and ``load`` drives a :class:`~repro.server.LoadGenerator`
client fleet at it::

    repro serve --protocol InpRR --epsilon 1.1 --width 2 --dimension 8 \\
        --port 7311 --shards 4 --stop-after-reports 10000 &
    repro load --protocol InpRR --epsilon 1.1 --width 2 --dimension 8 \\
        --port 7311 --clients 100 --dataset taxi -n 10000 --batch-size 500
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import dataclasses
import itertools
import json
import math
import os
import signal
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core.domain import Domain
from .core.exceptions import ProtocolConfigurationError, ReproError
from .core.rng import spawn_rngs
from .experiments import (
    categorical,
    fig3_taxi_heatmap,
    fig4_vary_n,
    fig5_vary_k,
    fig6_vary_d_em,
    fig7_chi2,
    fig8_chow_liu,
    fig9_vary_eps,
    fig10_freq_oracles,
    table2_bounds,
    table3_em_failures,
)
from .execution import available_executors
from .experiments.config import SweepConfig
from .experiments.harness import DATASET_NAMES, SweepResult, make_dataset
from .io import load_protocol_spec, save_protocol_spec, save_sweep_json
from .observability import configure_logging, get_logger
from .protocols.registry import available_protocols, make_protocol
from .resilience import defaults as resilience_defaults
from .server import DEFAULT_MAX_FRAME_BYTES, CollectionServer, LoadGenerator
from .server.server import _Group
from .service import AggregationSession, ProtocolSpec, split_report_frames
from .topology import ROUTING_POLICIES

__all__ = ["EXPERIMENTS", "main"]

#: Experiment name -> (module, one-line description).
EXPERIMENTS: Dict[str, tuple] = {
    "fig3": (fig3_taxi_heatmap, "taxi attribute-correlation heat map (Figure 3)"),
    "fig4": (fig4_vary_n, "error vs population size N (Figure 4)"),
    "fig5": (fig5_vary_k, "error vs marginal width k (Figure 5)"),
    "fig6": (fig6_vary_d_em, "InpEM baseline vs InpHT/MargPS at larger d (Figure 6)"),
    "fig7": (fig7_chi2, "chi-squared association tests (Figure 7)"),
    "fig8": (fig8_chow_liu, "Chow-Liu dependency trees (Figure 8)"),
    "fig9": (fig9_vary_eps, "error vs privacy parameter epsilon (Figure 9)"),
    "fig10": (fig10_freq_oracles, "frequency-oracle comparison (Figure 10)"),
    "table2": (table2_bounds, "communication/error bounds (Table 2)"),
    "table3": (table3_em_failures, "InpEM failure rates (Table 3)"),
    "categorical": (categorical, "categorical marginals via binary encoding (Cor. 6.1)"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables and figures from 'Marginal Release "
        "Under Local Differential Privacy' (SIGMOD 2018).",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error", "critical"),
        default="info",
        help="status-logging threshold for every subcommand (default: info)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit status logs as one JSON object per line instead of text",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list the available experiments and protocols"
    )
    list_parser.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable listing (experiments, protocols and "
        "their accepted options, datasets, executors) instead of the "
        "human-readable tables",
    )

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    scale = run_parser.add_mutually_exclusive_group()
    scale.add_argument(
        "--quick",
        action="store_true",
        default=True,
        help="use the fast, small-N preset (default)",
    )
    scale.add_argument(
        "--full",
        action="store_true",
        help="use the paper-scale parameter grid (slow)",
    )
    run_parser.add_argument(
        "--output", help="also write the rendered table to this text file"
    )
    run_parser.add_argument(
        "--json",
        help="for sweep experiments, also write the raw results to this JSON file",
    )
    run_parser.add_argument(
        "--batch-size",
        type=_positive_int,
        default=None,
        metavar="N",
        help="for sweep experiments, stream the dataset through the "
        "client/accumulator pipeline in record batches of this size",
    )
    run_parser.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        metavar="S",
        help="for sweep experiments, spread streamed batches over this many "
        "mergeable accumulator shards (estimates are shard-invariant)",
    )
    run_parser.add_argument(
        "--executor",
        choices=available_executors(),
        default=None,
        help="for sweep experiments, evaluate accumulator shards on this "
        "execution backend (estimates are identical across backends)",
    )
    run_parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="W",
        help="worker count for the process executor",
    )

    encode_parser = subparsers.add_parser(
        "encode",
        help="client side: simulate a population and emit serialized "
        "report frames",
    )
    encode_parser.add_argument(
        "--protocol", required=True, help="protocol name (e.g. InpHT)"
    )
    encode_parser.add_argument(
        "--epsilon", type=float, required=True, help="per-user privacy budget"
    )
    encode_parser.add_argument(
        "--width", type=_positive_int, required=True, metavar="K",
        help="workload width k (every <= k-way marginal becomes answerable)",
    )
    encode_parser.add_argument(
        "--option",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="extra protocol option (repeatable; value parsed as JSON, "
        "e.g. --option width=512)",
    )
    encode_parser.add_argument(
        "--dataset", choices=DATASET_NAMES, default="taxi",
        help="population generator simulating the clients (default: taxi)",
    )
    encode_parser.add_argument(
        "-n", "--population", type=_positive_int, default=10_000, metavar="N",
        help="number of simulated users (default: 10000)",
    )
    encode_parser.add_argument(
        "-d", "--dimension", type=_positive_int, default=8, metavar="D",
        help="number of binary attributes (default: 8)",
    )
    encode_parser.add_argument(
        "--seed", type=int, default=20180610, help="master random seed"
    )
    encode_parser.add_argument(
        "--batch-size", type=_positive_int, default=None, metavar="B",
        help="encode the population in record batches of this size "
        "(default: one batch)",
    )
    encode_parser.add_argument(
        "--spec-out", metavar="PATH",
        help="also write the protocol spec (the out-of-band client/server "
        "contract) to this JSON file",
    )
    encode_parser.add_argument(
        "--output", default="-", metavar="PATH",
        help="where to write the report frames ('-' = stdout, the default)",
    )

    aggregate_parser = subparsers.add_parser(
        "aggregate",
        help="server side: feed report frames to an AggregationSession and "
        "print the estimated marginals (and, for HH, the discovered "
        "heavy hitters)",
    )
    aggregate_parser.add_argument(
        "--spec", metavar="PATH",
        help="protocol spec JSON written by 'encode --spec-out' "
        "(required unless --restore is given)",
    )
    domain_group = aggregate_parser.add_mutually_exclusive_group()
    domain_group.add_argument(
        "-d", "--dimension", type=_positive_int, metavar="D",
        help="number of binary attributes (names default to attr0..attrD-1)",
    )
    domain_group.add_argument(
        "--attributes", metavar="A,B,C",
        help="comma-separated attribute names of the collection domain",
    )
    aggregate_parser.add_argument(
        "--input", default="-", metavar="PATH",
        help="report-frame stream to consume ('-' = stdin, the default; "
        "'none' = no frames, e.g. to re-print a restored checkpoint)",
    )
    aggregate_parser.add_argument(
        "--restore", metavar="PATH",
        help="resume a checkpointed session instead of starting fresh",
    )
    aggregate_parser.add_argument(
        "--checkpoint", metavar="PATH",
        help="write the session checkpoint here after ingesting the frames",
    )
    aggregate_parser.add_argument(
        "--top-k", type=_positive_int, default=None, metavar="K",
        dest="top_k", help="heavy hitters to discover, for a protocol whose "
        "estimator discovers them (HH; default: the spec's top_k)",
    )
    aggregate_parser.add_argument(
        "--confidence", type=float, default=0.95, metavar="C",
        help="two-sided confidence level of the heavy hitters' frequency "
        "intervals (default: 0.95)",
    )
    aggregate_parser.add_argument(
        "--json", metavar="PATH",
        help="also write the estimates, any discovery and the session "
        "metadata to this JSON file",
    )
    aggregate_parser.add_argument(
        "--output", metavar="PATH",
        help="also write the rendered text estimates to this file",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the asyncio network collection service (HELLO handshake, "
        "sharded aggregation, checkpoints)",
    )
    _add_contract_arguments(serve_parser)
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="listen address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=7311,
        help="listen port; 0 picks a free one (default: 7311)",
    )
    serve_parser.add_argument(
        "--shards", type=_positive_int, default=1, metavar="S",
        help="number of AggregationSession shards connections are spread "
        "over round-robin (estimates are shard-invariant)",
    )
    serve_parser.add_argument(
        "--max-frame-bytes", type=_positive_int, default=None, metavar="N",
        help="per-connection report-frame size cap (backpressure bound)",
    )
    serve_parser.add_argument(
        "--processes", type=_positive_int, default=1, metavar="P",
        help="run a supervised fleet of P durable collector processes sharing "
        "the port via SO_REUSEPORT (ACKs wait for the commit-log sync); it is "
        "stopped, then fanned in to the same estimates as one process, and "
        "state lives in DIR/c<i>/ under --checkpoint-dir; the kernel "
        "balances connections, not groups (default: 1)",
    )
    serve_parser.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="collect durably in DIR: every group is synced to the commit "
        "log DIR/state.log before its ACK, DIR/state.npz is the snapshot, "
        "and a serve restarted on DIR resumes from both",
    )
    serve_parser.add_argument(
        "--stop-after-reports", type=_positive_int, default=None, metavar="N",
        help="shut down (and print the estimates) once N user reports have "
        "been collected; without it, serve until SIGINT/SIGTERM",
    )
    serve_parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="also serve a Prometheus-style scrape endpoint on this port "
        "(0 picks a free one; GET /metrics); single-process serve only",
    )
    serve_parser.add_argument(
        "--stats-interval", type=_positive_float, default=None, metavar="SEC",
        help="log a one-line throughput summary every SEC seconds while "
        "serving (single-process serve only)",
    )
    serve_parser.add_argument(
        "--json", metavar="PATH",
        help="write the final estimates plus server stats to this JSON file",
    )
    serve_parser.add_argument(
        "--output", metavar="PATH",
        help="also write the rendered text estimates to this file",
    )

    load_parser = subparsers.add_parser(
        "load",
        help="hammer a running collection server with a fleet of simulated "
        "clients and report the achieved throughput",
    )
    _add_contract_arguments(load_parser)
    load_parser.add_argument(
        "--host", default="127.0.0.1", help="server address (default: 127.0.0.1)"
    )
    load_parser.add_argument(
        "--port", type=int, default=7311, help="server port (default: 7311)"
    )
    load_parser.add_argument(
        "--clients", type=_positive_int, default=8, metavar="C",
        help="number of concurrent simulated clients (default: 8)",
    )
    load_parser.add_argument(
        "--dataset", choices=DATASET_NAMES, default=None,
        help="encode this named dataset with run_streaming's rng discipline "
        "(so the server's estimates match an in-process baseline "
        "bit-for-bit); without it each client synthesizes its own records",
    )
    load_parser.add_argument(
        "-n", "--population", type=_positive_int, default=10_000, metavar="N",
        help="dataset size for --dataset mode (default: 10000)",
    )
    load_parser.add_argument(
        "--records-per-client", type=_positive_int, default=256, metavar="R",
        help="records each client synthesizes without --dataset (default: 256)",
    )
    load_parser.add_argument(
        "--batch-size", type=_positive_int, default=None, metavar="B",
        help="records per report frame (default: one frame per client, or "
        "one frame for the whole --dataset)",
    )
    load_parser.add_argument(
        "--seed", type=int, default=20180610, help="master random seed"
    )
    load_parser.add_argument(
        "--frames-per-connection", type=_positive_int, default=None, metavar="F",
        help="group size: each client sends its frames in groups of F, each "
        "its own HELLO ... FIN/ACK (and token); groups to one address share "
        "one kept-alive connection (default: one group per client)",
    )
    load_parser.add_argument(
        "--malformed", type=int, default=0, metavar="M",
        help="also open M poison connections that send garbage and expect a "
        "per-connection ERR (default: 0)",
    )
    load_parser.add_argument(
        "--connect-timeout", type=_positive_float, default=10.0, metavar="SEC",
        help="keep retrying the first connect for SEC seconds (default: 10)",
    )
    load_parser.add_argument(
        "--json", metavar="PATH",
        help="write the fleet's throughput report to this JSON file",
    )
    load_parser.add_argument(
        "--topology", metavar="DIR", default=None,
        help="drive a whole `repro topo launch` tree: read the collection "
        "contract, collector addresses, routing policy and failover oracle "
        "from DIR/topology.json (waits for the manifest to appear); "
        "contract/--host/--port flags are then taken from the manifest",
    )
    load_parser.add_argument(
        "--token-prefix", metavar="P", default=None,
        help="idempotency-token prefix for --topology mode (default: a "
        "fresh per-run value; reusing a prefix against the same tree "
        "dedupes the groups as replays)",
    )
    load_parser.add_argument(
        "--spool-dir", metavar="DIR", default=None,
        help="durable client spool: append every group to DIR before "
        "sending and commit it on ACK, so a crashed client rerun with the "
        "same --spool-dir and --token-prefix resumes without double-"
        "folding (requires --token-prefix)",
    )

    watch_parser = subparsers.add_parser(
        "watch",
        help="poll running collectors' STATS frames and render live "
        "throughput, per-shard report counts, and the theory-derived "
        "expected-error half-width",
    )
    watch_parser.add_argument(
        "targets", nargs="*", metavar="HOST:PORT",
        help="collector addresses to watch (e.g. 127.0.0.1:7311)",
    )
    watch_parser.add_argument(
        "--topology", metavar="DIR", default=None,
        help="watch every collector of a `repro topo launch` tree "
        "(addresses read from DIR/topology.json)",
    )
    watch_parser.add_argument(
        "--interval", type=_positive_float, default=2.0, metavar="SEC",
        help="seconds between samples (default: 2)",
    )
    watch_parser.add_argument(
        "--once", action="store_true",
        help="print a single sample and exit instead of polling",
    )
    watch_parser.add_argument(
        "--json", action="store_true",
        help="emit each sample as raw JSON (stats + metrics snapshot) "
        "instead of the rendered view",
    )
    watch_parser.add_argument(
        "--timeout", type=_positive_float, default=5.0, metavar="SEC",
        help="per-probe STATS timeout (default: 5)",
    )

    topo_parser = subparsers.add_parser(
        "topo",
        help="launch/inspect/finalize a local multi-collector fan-in "
        "topology (N durable collectors + supervisor + failover oracle)",
    )
    topo_subparsers = topo_parser.add_subparsers(
        dest="topo_command", required=True
    )

    topo_launch = topo_subparsers.add_parser(
        "launch",
        help="spawn N durable collector processes plus the supervisor "
        "oracle, write DIR/topology.json, serve until stopped, then "
        "fan in and print the merged estimates",
    )
    _add_contract_arguments(topo_launch)
    topo_launch.add_argument(
        "--dir", required=True, metavar="DIR",
        help="topology directory: per-collector durable checkpoints and "
        "the topology.json manifest live here",
    )
    topo_launch.add_argument(
        "--collectors", type=_positive_int, default=3, metavar="N",
        help="number of front-line collector processes (default: 3)",
    )
    topo_launch.add_argument(
        "--shards", type=_positive_int, default=1, metavar="S",
        help="AggregationSession shards inside each collector (default: 1)",
    )
    topo_launch.add_argument(
        "--routing", choices=list(ROUTING_POLICIES), default="round-robin",
        help="routing policy clients should use (recorded in the manifest)",
    )
    topo_launch.add_argument(
        "--host", default="127.0.0.1",
        help="listen address for every collector (default: 127.0.0.1)",
    )
    topo_launch.add_argument(
        "--stop-after-reports", type=_positive_int, default=None, metavar="N",
        help="finalize the tree (and print the estimates) once N reports "
        "are durably acknowledged across collectors; without it, serve "
        "until SIGINT/SIGTERM",
    )
    topo_launch.add_argument(
        "--kill-after-reports", type=_positive_int, default=None, metavar="K",
        help="fault injection: SIGKILL one collector once K reports are "
        "durably acknowledged (its checkpoint is recovered and re-merged)",
    )
    topo_launch.add_argument(
        "--kill-collector", type=int, default=0, metavar="I",
        help="which collector --kill-after-reports kills (default: 0)",
    )
    topo_launch.add_argument(
        "--json", metavar="PATH",
        help="write the final estimates plus topology stats to this file",
    )
    topo_launch.add_argument(
        "--output", metavar="PATH",
        help="also write the rendered text estimates to this file",
    )

    topo_inspect = topo_subparsers.add_parser(
        "inspect",
        help="print a live tree's per-collector stats and the supervisor's "
        "recovered-state verdicts as JSON",
    )
    topo_inspect.add_argument(
        "--dir", required=True, metavar="DIR", help="topology directory"
    )

    topo_finalize = topo_subparsers.add_parser(
        "finalize",
        help="fan in a tree non-destructively: pull every live collector's "
        "state over the wire, recover dead ones from their durable "
        "checkpoints, merge, and print the estimates",
    )
    topo_finalize.add_argument(
        "--dir", required=True, metavar="DIR", help="topology directory"
    )
    topo_finalize.add_argument(
        "--json", metavar="PATH",
        help="write the merged estimates to this JSON file",
    )
    topo_finalize.add_argument(
        "--allow-partial", action="store_true",
        help="degraded mode: finalize even when collectors (and their "
        "reports) are known lost, attaching the coverage ledger and the "
        "inflated error bound instead of refusing",
    )
    topo_finalize.add_argument(
        "--expected-reports", metavar="PATH", default=None,
        help="a `repro load --json` report whose per-target ACK counts "
        "define how many reports each collector must hold; shortfalls "
        "make the strict mode fail (or show up as exact per-collector "
        "losses under --allow-partial)",
    )

    return parser


def _add_contract_arguments(parser: argparse.ArgumentParser) -> None:
    """The collection contract: a spec (file or inline) plus the domain."""
    parser.add_argument(
        "--spec", metavar="PATH",
        help="protocol spec JSON (e.g. from 'encode --spec-out'); "
        "alternatively give --protocol/--epsilon/--width inline",
    )
    parser.add_argument("--protocol", help="protocol name (e.g. InpRR)")
    parser.add_argument(
        "--epsilon", type=float, help="per-user privacy budget"
    )
    parser.add_argument(
        "--width", type=_positive_int, metavar="K", help="workload width k"
    )
    parser.add_argument(
        "--option",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="extra protocol option (repeatable; value parsed as JSON)",
    )
    domain_group = parser.add_mutually_exclusive_group()
    domain_group.add_argument(
        "-d", "--dimension", type=_positive_int, metavar="D",
        help="number of binary attributes (names default to attr0..attrD-1)",
    )
    domain_group.add_argument(
        "--attributes", metavar="A,B,C",
        help="comma-separated attribute names of the collection domain",
    )


def _contract_from_args(arguments: argparse.Namespace):
    """Resolve the (spec, domain) collection contract of serve/load."""
    if arguments.spec and arguments.protocol:
        raise ReproError("pass either --spec or --protocol, not both")
    if arguments.spec:
        spec = load_protocol_spec(arguments.spec)
    elif arguments.protocol:
        if arguments.epsilon is None or arguments.width is None:
            raise ReproError("--protocol requires --epsilon and --width")
        spec = ProtocolSpec(
            protocol=arguments.protocol,
            epsilon=arguments.epsilon,
            max_width=arguments.width,
            options=_parse_options(arguments.option),
        )
    else:
        raise ReproError(
            "describe the collection contract with --spec PATH or "
            "--protocol/--epsilon/--width"
        )
    spec.build()  # surface unknown protocols/options before any socket work
    if arguments.attributes:
        domain = Domain(
            [name.strip() for name in arguments.attributes.split(",")]
        )
    elif arguments.dimension:
        domain = Domain.binary(arguments.dimension)
    else:
        raise ReproError(
            "pass --dimension or --attributes to describe the collection domain"
        )
    return spec, domain


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text}"
        )
    return value


def _protocol_listing() -> Dict[str, Dict]:
    """Machine-readable description of every registered protocol."""
    from .protocols.registry import (
        CORE_PROTOCOL_NAMES,
        DISCOVERY_PROTOCOL_NAMES,
        PROTOCOL_CLASSES,
    )

    listing: Dict[str, Dict] = {}
    for name in available_protocols():
        protocol_class = PROTOCOL_CLASSES[name]
        instance = make_protocol(name, 1.0, 1)
        if name in CORE_PROTOCOL_NAMES:
            role = "core"
        elif name in DISCOVERY_PROTOCOL_NAMES:
            role = "discovery"
        else:
            role = "baseline"
        listing[name] = {
            "core": name in CORE_PROTOCOL_NAMES,
            "role": role,
            "options": sorted(
                ProtocolSpec.accepted_options(protocol_class)
            ),
            "default_options": instance.spec_options(),
        }
    return listing


def _run_list(arguments: argparse.Namespace) -> int:
    protocols = _protocol_listing()
    if arguments.json:
        payload = {
            "experiments": {
                name: EXPERIMENTS[name][1] for name in sorted(EXPERIMENTS)
            },
            "protocols": protocols,
            "datasets": list(DATASET_NAMES),
            "executors": list(available_executors()),
        }
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    width = max(len(name) for name in EXPERIMENTS)
    for name in sorted(EXPERIMENTS):
        _, description = EXPERIMENTS[name]
        print(f"{name.ljust(width)}  {description}")
    print()
    print("protocols:")
    width = max(len(name) for name in protocols)
    for name, info in protocols.items():
        options = ", ".join(info["options"]) if info["options"] else "-"
        print(f"  {name.ljust(width)}  {info['role']:9}  options: {options}")
    return 0


def _run_experiment(arguments: argparse.Namespace) -> int:
    module, _ = EXPERIMENTS[arguments.experiment]
    config = module.default_config(quick=not arguments.full)
    streaming_overrides = {
        name: getattr(arguments, name)
        for name in ("batch_size", "shards", "executor", "workers")
        if getattr(arguments, name) is not None
    }
    if streaming_overrides:
        if not isinstance(config, SweepConfig):
            print(
                f"--batch-size/--shards/--executor/--workers only apply to "
                f"sweep experiments; {arguments.experiment} is not one",
                file=sys.stderr,
            )
            return 2
        try:
            config = dataclasses.replace(config, **streaming_overrides)
        except ProtocolConfigurationError as error:
            print(f"run: {error}", file=sys.stderr)
            return 2
    result = module.run(config)
    rendered = module.render(result)
    print(rendered)
    if arguments.output:
        with open(arguments.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"\nwrote {arguments.output}", file=sys.stderr)
    if arguments.json:
        if isinstance(result, SweepResult):
            save_sweep_json(result, arguments.json)
            print(f"wrote {arguments.json}", file=sys.stderr)
        else:
            print(
                f"--json is only supported for sweep experiments; "
                f"{arguments.experiment} is not one",
                file=sys.stderr,
            )
            return 2
    return 0


def _parse_options(pairs: Sequence[str]) -> Dict[str, object]:
    """Parse repeated ``--option key=value`` flags (values read as JSON)."""
    options: Dict[str, object] = {}
    for pair in pairs:
        key, separator, raw = pair.partition("=")
        if not separator or not key:
            raise ReproError(
                f"--option expects KEY=VALUE, got {pair!r}"
            )
        try:
            options[key] = json.loads(raw)
        except json.JSONDecodeError:
            if raw in ("True", "False", "None"):
                # Python spellings of JSON literals; the string fallback
                # would silently invert booleans (bool('False') is True).
                options[key] = {"True": True, "False": False, "None": None}[raw]
            else:
                options[key] = raw
    return options


def _run_encode(arguments: argparse.Namespace) -> int:
    try:
        spec = ProtocolSpec(
            protocol=arguments.protocol,
            epsilon=arguments.epsilon,
            max_width=arguments.width,
            options=_parse_options(arguments.option),
        )
        protocol = spec.build()
        if arguments.width > arguments.dimension:
            print(
                f"encode: --width {arguments.width} exceeds the "
                f"{arguments.dimension}-attribute domain (-d)",
                file=sys.stderr,
            )
            return 2
        if arguments.spec_out:
            save_protocol_spec(spec, arguments.spec_out)
            print(f"wrote {arguments.spec_out}", file=sys.stderr)

        generator = np.random.default_rng(arguments.seed)
        dataset = make_dataset(
            arguments.dataset,
            arguments.population,
            arguments.dimension,
            generator,
        )
        # Mirror run_streaming's rng discipline (one child generator per
        # batch, the master itself for a single batch) so, for the same seed
        # and batch size, the shell round trip reproduces the in-process
        # pipeline exactly.
        num_batches = dataset.num_batches(arguments.batch_size)
        if num_batches == 1:
            batch_rngs = [generator]
        else:
            batch_rngs = spawn_rngs(generator, num_batches)

        total_bytes = 0
        sink = (
            sys.stdout.buffer
            if arguments.output == "-"
            else open(arguments.output, "wb")
        )
        try:
            for chunk, chunk_rng in zip(
                dataset.iter_batches(arguments.batch_size), batch_rngs
            ):
                frame = protocol.encode_batch(chunk, rng=chunk_rng).to_bytes()
                sink.write(frame)
                total_bytes += len(frame)
            sink.flush()
        finally:
            if sink is not sys.stdout.buffer:
                sink.close()
    except BrokenPipeError:
        raise  # handled quietly in main(); not an encode failure
    except (ReproError, OSError, ValueError) as error:
        # OSError: unwritable --output/--spec-out paths; ValueError: option
        # values the protocol constructor rejects (e.g. width="abc").
        print(f"encode: {error}", file=sys.stderr)
        return 2
    bits_per_user = 8.0 * total_bytes / dataset.size
    print(
        f"encoded {dataset.size} users into {num_batches} frame(s), "
        f"{total_bytes} bytes ({bits_per_user:.1f} wire bits/user; "
        f"Table 2: {protocol.communication_bits(dataset.dimension)} bits/user)",
        file=sys.stderr,
    )
    return 0


def _render_discovery(result) -> str:
    """Human-readable discovery walk."""
    lines = [
        "levels    : "
        + "  ".join(
            f"b={bits}:n={count},cut={threshold:.4f}"
            for bits, count, threshold in zip(
                result.level_bits, result.level_reports, result.thresholds
            )
        )
    ]
    lines.append(
        f"top-{len(result.hitters)} heavy hitters "
        f"({result.confidence:.0%} confidence):"
    )
    for rank, hitter in enumerate(result.hitters, start=1):
        names = ",".join(hitter.attributes) or "<none set>"
        lines.append(
            f"  {rank:2d}. cell {hitter.index:>6d}  "
            f"freq {hitter.frequency:+.4f} ± {hitter.half_width:.4f}  "
            f"[{names}]"
        )
    return "\n".join(lines)


def _release(
    estimator,
    session: AggregationSession,
    top_k: Optional[int] = None,
    confidence: float = 0.95,
) -> Tuple[str, Dict]:
    """The rendered text and the JSON payload of a release.

    ``estimator=None`` (an empty session) yields empty ``marginals``.  An
    estimator that discovers heavy hitters (HH) also runs its walk, at
    ``top_k`` (default: the spec's) and ``confidence``, so every release
    verb prints and records the same ``discovery``.
    """
    metadata = session.metadata
    lines = [
        f"protocol  : {session.spec.describe()}",
        f"reports   : {session.num_reports}",
    ]
    if metadata["wire_bytes_per_report"] is not None:
        lines.append(
            f"wire      : {metadata['wire_bytes_total']} bytes in "
            f"{metadata['wire_batches']} frame(s), "
            f"{8.0 * metadata['wire_bytes_per_report']:.1f} bits/user"
        )
    marginals = []
    if estimator is not None:
        lines.append("")
        for beta, table in sorted(estimator.query_all().items()):
            names = estimator.domain.names_of(beta)
            values = " ".join(f"{value:.4f}" for value in table.values)
            lines.append(f"{','.join(names)}: {values}")
            marginals.append(
                {
                    "attributes": names,
                    "values": [float(value) for value in table.values],
                }
            )
    discovery = None
    if hasattr(estimator, "discover"):
        discovery = estimator.discover(top_k=top_k, confidence=confidence)
        lines += ["", _render_discovery(discovery)]
    payload = {
        "spec": session.spec.to_dict(),
        "num_reports": session.num_reports,
        "session": metadata,
        "attributes": list(session.domain.attributes),
        "marginals": marginals,
        "discovery": discovery.to_dict() if discovery is not None else None,
    }
    return "\n".join(lines), payload


def _emit(arguments: argparse.Namespace, rendered: str, payload: Dict) -> int:
    """Print a release, and write it to ``--output`` and ``--json``."""
    print(rendered)
    for path, text in (
        (getattr(arguments, "output", None), rendered),
        (arguments.json, json.dumps(payload, indent=2)),
    ):
        if path:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"wrote {path}", file=sys.stderr)
    return 0


def _run_aggregate(arguments: argparse.Namespace) -> int:
    try:
        if arguments.restore and (
            arguments.spec or arguments.dimension or arguments.attributes
        ):
            print(
                "aggregate: --restore carries the session's own spec and "
                "domain; --spec/--dimension/--attributes cannot be combined "
                "with it",
                file=sys.stderr,
            )
            return 2
        domain = None
        if not arguments.restore:
            if not arguments.spec:
                print(
                    "aggregate: --spec is required unless --restore is given",
                    file=sys.stderr,
                )
                return 2
            if arguments.attributes:
                domain = Domain(
                    [name.strip() for name in arguments.attributes.split(",")]
                )
            elif arguments.dimension:
                domain = Domain.binary(arguments.dimension)
            else:
                print(
                    "aggregate: pass --dimension or --attributes to describe "
                    "the collection domain (or --restore a checkpoint)",
                    file=sys.stderr,
                )
                return 2
        # Restoring at an interactive terminal with nothing piped in, or an
        # explicit --input none, means there are no frames to ingest — the
        # command just (re-)prints the session's estimates.
        no_input = arguments.input == "none" or (
            arguments.restore
            and arguments.input == "-"
            and sys.stdin.isatty()
        )
        # Read ONE frame from stdin before loading the spec file: in an
        # ``encode | aggregate`` pipeline both processes start together, but
        # the producer writes --spec-out before emitting its first frame
        # byte, so having a frame (or EOF) in hand guarantees the spec file
        # exists.  The rest is folded a block at a time, like --input FILE.
        frames = []
        if not no_input and arguments.input == "-":
            stream = split_report_frames(sys.stdin.buffer)
            first = next(stream, None)
            frames = itertools.chain([first] if first else [], stream)
        if arguments.restore:
            session = AggregationSession.restore(arguments.restore)
            print(
                f"restored session with {session.num_reports} reports from "
                f"{arguments.restore}",
                file=sys.stderr,
            )
        else:
            session = AggregationSession(
                load_protocol_spec(arguments.spec), domain
            )
        if no_input or arguments.input == "-":
            _fold_frames(session, frames)
        else:
            with open(arguments.input, "rb") as source:
                _fold_frames(session, split_report_frames(source))
        if arguments.checkpoint:
            session.checkpoint(arguments.checkpoint)
            print(f"wrote {arguments.checkpoint}", file=sys.stderr)
        estimator = session.snapshot() if session.num_reports else None
        rendered, payload = _release(
            estimator, session, arguments.top_k, arguments.confidence
        )
    except BrokenPipeError:
        raise  # handled quietly in main(); not an aggregate failure
    except (ReproError, OSError, ValueError) as error:
        # OSError: missing/unreadable --input or checkpoint paths.
        print(f"aggregate: {error}", file=sys.stderr)
        return 2
    return _emit(arguments, rendered, payload)


def _fold_frames(session: AggregationSession, frames) -> None:
    """Fold report frames into ``session`` as a collector folds a group:
    each parsed as it is read, the parsed frames unpacked and folded a
    block per ``DEFAULT_BATCH_MAX_USERS`` users (memory holds one block),
    and every frame counted as a per-frame ``submit`` counts it."""
    protocol, domain = session.protocol, session.domain
    group = _Group(protocol, domain)
    for frame in frames:
        group.add(protocol.parse_report_frame(frame, domain), len(frame))
    group.fold()
    if group.accumulator is not None:
        session.merge_group(
            group.accumulator, frames=group.frames, wire_bytes=group.bytes
        )


async def _serve_stats_ticker(
    server: CollectionServer, interval: float
) -> None:
    """Log a one-line throughput summary every ``interval`` seconds."""
    logger = get_logger("serve")
    # Start from what the server already holds (a resumed durable
    # collector's restored reports), so the first rate counts only new ones.
    stats = server.stats()
    last_reports, last_bytes = int(stats["reports"]), int(stats["bytes"])
    while True:
        await asyncio.sleep(interval)
        stats = server.stats()
        reports = int(stats["reports"])
        num_bytes = int(stats["bytes"])
        logger.info(
            "throughput: %d reports (+%.1f/s), %.2f MB (+%.2f MB/s), "
            "%d active connection(s)",
            reports,
            (reports - last_reports) / interval,
            num_bytes / 1e6,
            (num_bytes - last_bytes) / (1e6 * interval),
            stats["connections"]["active"],
        )
        last_reports, last_bytes = reports, num_bytes


@contextlib.contextmanager
def _stop_signals(callback):
    """Route SIGINT/SIGTERM to ``callback`` on the running loop, inside.

    Enter before printing a readiness line: a caller that signals the
    moment it sees the line must always get the graceful shutdown.
    """
    loop = asyncio.get_running_loop()
    registered = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, callback)
            registered.append(signum)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-unix loops / nested loops: Ctrl-C still interrupts
    try:
        yield
    finally:
        for signum in registered:
            loop.remove_signal_handler(signum)


async def _serve_main(
    server: CollectionServer, stats_interval: Optional[float] = None
) -> None:
    """Start the server, announce readiness, serve until a stop signal."""
    logger = get_logger("serve")
    ticker = None
    with _stop_signals(server.request_stop):
        try:
            await server.start()
            logger.info(
                "serving %s over %d attribute(s) on %s:%d (%d shard(s))",
                server.spec.describe(),
                server.domain.dimension,
                server.host,
                server.port,
                server.num_shards,
            )
            if stats_interval is not None:
                ticker = asyncio.create_task(
                    _serve_stats_ticker(server, stats_interval)
                )
            await server.serve_until_stopped()
        finally:
            if ticker is not None:
                ticker.cancel()
                try:
                    await ticker
                except asyncio.CancelledError:
                    pass


async def _supervise(
    arguments: argparse.Namespace, supervisor, start
) -> Optional[str]:
    """The wait loop of a supervised fleet (``serve --processes``, ``topo
    launch``): run ``start()``, then health-check the fleet until
    SIGINT/SIGTERM or ``--stop-after-reports`` durably committed reports.

    ``--kill-after-reports`` (``topo launch`` only) SIGKILLs collector
    ``--kill-collector`` once that many reports are committed; the killed
    collector's id is returned.
    """
    stop_requested = asyncio.Event()
    kill_after = getattr(arguments, "kill_after_reports", None)
    killed = None
    with _stop_signals(stop_requested.set):
        await start()
        while not stop_requested.is_set():
            await supervisor.health_check_async()
            reports = supervisor.num_reports
            if killed is None and kill_after is not None and reports >= kill_after:
                index = arguments.kill_collector
                if not 0 <= index < len(supervisor.handles):
                    raise ReproError(
                        f"--kill-collector {index} is out of range for "
                        f"{len(supervisor.handles)} collector(s)"
                    )
                if supervisor.is_alive(index):
                    supervisor.kill(index)
                    killed = supervisor.handles[index].collector_id
                    get_logger("topo").info(
                        "topology: killed collector %s after %d durable "
                        "report(s)",
                        killed,
                        reports,
                    )
            if (
                arguments.stop_after_reports is not None
                and reports >= arguments.stop_after_reports
            ):
                break
            try:
                await asyncio.wait_for(
                    stop_requested.wait(),
                    resilience_defaults.WATCH_INTERVAL_SECONDS,
                )
            except asyncio.TimeoutError:
                pass
    return killed


def _serve_fleet(arguments: argparse.Namespace, spec, domain):
    """``serve --processes P``: P durable collectors sharing the serve
    port, stopped, then fanned in; returns ``(session, stats_payload)``.

    Their state is ``c<i>/`` under ``--checkpoint-dir``, or under a
    temporary directory deleted after the fan-in.
    """
    from .topology import TopologySupervisor

    with tempfile.TemporaryDirectory(prefix="repro-serve-") as scratch:
        supervisor = TopologySupervisor(
            spec,
            domain,
            collectors=arguments.processes,
            base_dir=arguments.checkpoint_dir or scratch,
            host=arguments.host,
            port=arguments.port,
            shards=arguments.shards,
            max_frame_bytes=arguments.max_frame_bytes or DEFAULT_MAX_FRAME_BYTES,
        )

        async def start() -> None:
            supervisor.start()
            get_logger("serve").info(
                "serving %s over %d attribute(s) on %s:%d "
                "(%d process(es), %d shard(s) each)",
                spec.describe(),
                domain.dimension,
                arguments.host,
                supervisor.addresses[0][1],
                arguments.processes,
                arguments.shards,
            )

        async def serve():
            try:
                await _supervise(arguments, supervisor, start)
            finally:
                supervisor.shutdown()
            return await supervisor.collect()

        combined = asyncio.run(serve()).merged_session()
        metrics = supervisor.metrics_snapshot()
    metadata = combined.metadata
    get_logger("serve").info(
        "collected %d reports in %d frame(s) across %d collector process(es)",
        combined.num_reports,
        metadata["wire_batches"],
        arguments.processes,
    )
    stats = {
        "address": {"host": arguments.host, "port": supervisor.addresses[0][1]},
        "spec": spec.to_dict(),
        "processes": arguments.processes,
        "reports": combined.num_reports,
        "frames": metadata["wire_batches"],
        "bytes": metadata["wire_bytes_total"],
        "metrics": metrics.state_dict(),
    }
    return combined, stats


def _run_serve(arguments: argparse.Namespace) -> int:
    try:
        spec, domain = _contract_from_args(arguments)
        if arguments.processes > 1:
            if arguments.metrics_port is not None or (
                arguments.stats_interval is not None
            ):
                print(
                    "serve: --metrics-port/--stats-interval need the "
                    "single-process server (collectors cannot share one "
                    "scrape socket); drop --processes or the metrics flags",
                    file=sys.stderr,
                )
                return 2
            combined, stats = _serve_fleet(arguments, spec, domain)
        else:
            extra = {}
            if arguments.max_frame_bytes is not None:
                extra["max_frame_bytes"] = arguments.max_frame_bytes
            if arguments.metrics_port is not None:
                extra["metrics_port"] = arguments.metrics_port
            server = CollectionServer(
                spec,
                domain,
                host=arguments.host,
                port=arguments.port,
                shards=arguments.shards,
                checkpoint_dir=arguments.checkpoint_dir,
                stop_after_reports=arguments.stop_after_reports,
                **extra,
            )
            asyncio.run(_serve_main(server, arguments.stats_interval))
            stats = server.stats()
            get_logger("serve").info(
                "collected %d reports in %d frame(s) over %d connection(s) "
                "(%d rejected)",
                stats["reports"],
                stats["frames"],
                stats["connections"]["total"],
                stats["connections"]["rejected"],
            )
            combined = server.combined_session()
        if combined.num_reports == 0:
            print(
                "serve: collected no reports; nothing to estimate",
                file=sys.stderr,
            )
            estimator = None
        else:
            estimator = combined.snapshot()
        rendered, payload = _release(estimator, combined)
        payload["server"] = stats
    except (ReproError, OSError, ValueError) as error:
        # OSError: the port is taken or the checkpoint dir is unwritable.
        print(f"serve: {error}", file=sys.stderr)
        return 2
    return _emit(arguments, rendered, payload)


def _load_topology_contract(arguments: argparse.Namespace):
    """Resolve (spec, domain, fleet kwargs) from a topology manifest."""
    import time as _time

    from .topology import wait_for_manifest
    from .topology.pull import pull_control

    manifest = wait_for_manifest(
        arguments.topology, timeout=arguments.connect_timeout
    )
    spec = ProtocolSpec.from_dict(manifest["spec"])
    domain = Domain(manifest["attributes"])
    targets = [
        (collector["host"], int(collector["port"]))
        for collector in manifest["collectors"]
    ]
    oracle = manifest.get("supervisor") or {}
    failover = None
    if oracle.get("port"):
        host, port = str(oracle["host"]), int(oracle["port"])

        async def failover(address):
            answer = await pull_control(host, port, {"what": "recovered"})
            payload = answer.payload
            return {
                "dead": f"{address[0]}:{address[1]}"
                in (payload.get("dead") or []),
                "acked_tokens": payload.get("acked_tokens") or {},
            }

    token_prefix = arguments.token_prefix
    if token_prefix is None:
        # Fresh per run: tokens are idempotency keys inside the collectors'
        # durable state, so replaying a previous run's prefix against the
        # same tree would dedupe every group away.
        token_prefix = f"load-{os.getpid()}-{_time.time_ns():x}"
    kwargs = {
        "targets": targets,
        "routing": manifest["routing"],
        "token_prefix": token_prefix,
        "failover": failover,
    }
    return spec, domain, kwargs


def _run_load(arguments: argparse.Namespace) -> int:
    try:
        if arguments.topology:
            spec, domain, fleet_kwargs = _load_topology_contract(arguments)
        else:
            spec, domain = _contract_from_args(arguments)
            fleet_kwargs = {
                "host": arguments.host,
                "port": arguments.port,
            }
            if arguments.token_prefix:
                fleet_kwargs["token_prefix"] = arguments.token_prefix
        frames = None
        if arguments.dataset:
            # Build the dataset and encode with run_streaming's exact rng
            # discipline (same generator object for both), so the server's
            # finalized estimates can be compared bit-for-bit against an
            # in-process run_streaming(dataset, rng, batch_size) baseline.
            generator = np.random.default_rng(arguments.seed)
            dataset = make_dataset(
                arguments.dataset,
                arguments.population,
                domain.dimension,
                generator,
            )
            frames = LoadGenerator.frames_for_dataset(
                spec, dataset, arguments.batch_size, rng=generator
            )
        if arguments.spool_dir:
            fleet_kwargs["spool_dir"] = arguments.spool_dir
        fleet = LoadGenerator(
            spec,
            domain,
            frames=frames,
            **fleet_kwargs,
            num_clients=arguments.clients,
            records_per_client=arguments.records_per_client,
            batch_size=arguments.batch_size,
            seed=arguments.seed,
            frames_per_connection=arguments.frames_per_connection,
            malformed_connections=arguments.malformed,
            connect_timeout=arguments.connect_timeout,
        )
        report = asyncio.run(fleet.run())
    except (ReproError, OSError, ValueError) as error:
        print(f"load: {error}", file=sys.stderr)
        return 2
    print(
        "\n".join(
            [
                f"clients     : {report.clients}",
                f"connections : {report.connections} "
                f"({report.rejected_connections} rejected as expected)",
                f"frames      : {report.frames} sent, "
                f"{report.acked_frames} acked",
                f"reports     : {report.acked_reports} acked",
                f"failover    : {report.retries} retried group(s), "
                f"{report.recovered_groups} recovered from dead collectors, "
                f"{report.spool_replays} replayed from the spool",
                f"bytes       : {report.bytes}",
                f"duration    : {report.duration_seconds:.3f} s",
                f"throughput  : {report.reports_per_second:,.0f} reports/s, "
                f"{report.megabytes_per_second:.2f} MB/s",
            ]
        )
    )
    if arguments.json:
        with open(arguments.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote {arguments.json}", file=sys.stderr)
    return 0


async def _topo_launch_main(arguments, topology) -> Dict:
    """Serve the tree until stopped/complete; returns the final stats."""
    supervisor = topology.supervisor

    async def start() -> None:
        await topology.start()
        ports = ", ".join(str(port) for _, port in supervisor.addresses)
        get_logger("topo").info(
            "topology: %d collector(s) for %s on %s port(s) %s; "
            "supervisor oracle on port %d; manifest %s",
            arguments.collectors,
            supervisor.spec.describe(),
            arguments.host,
            ports,
            topology.endpoint.port,
            topology.manifest_path,
        )

    try:
        killed = await _supervise(arguments, supervisor, start)
        aggregator = await supervisor.collect()
        merged = aggregator.merged_session()
        recovered_reports = sum(
            state.num_reports
            for state in supervisor.recovered_states().values()
        )
        return {
            "merged": merged,
            "stats": {
                "collectors": supervisor.describe(),
                "routing": topology.routing,
                "dead": [
                    handle.collector_id
                    for handle in supervisor.handles
                    if handle.status == "dead"
                ],
                "killed": killed,
                "recovered_reports": recovered_reports,
                "reports": merged.num_reports,
            },
        }
    finally:
        await topology.stop()


def _run_topo_launch(arguments: argparse.Namespace) -> int:
    from .topology import LocalTopology

    try:
        spec, domain = _contract_from_args(arguments)
        topology = LocalTopology(
            spec,
            domain,
            base_dir=arguments.dir,
            collectors=arguments.collectors,
            shards=arguments.shards,
            routing=arguments.routing,
            host=arguments.host,
        )
        outcome = asyncio.run(_topo_launch_main(arguments, topology))
        merged = outcome["merged"]
        stats = outcome["stats"]
    except (ReproError, OSError, ValueError) as error:
        print(f"topo launch: {error}", file=sys.stderr)
        return 2
    dead = stats["dead"]
    recovered_reports = stats["recovered_reports"]
    get_logger("topo").info(
        "topology collected %d report(s); dead: %s; recovered %d "
        "report(s) from durable checkpoints",
        merged.num_reports,
        dead or "none",
        recovered_reports,
    )
    estimator = merged.snapshot() if merged.num_reports else None
    rendered, payload = _release(estimator, merged)
    payload["topology"] = stats
    return _emit(arguments, rendered, payload)


def _run_topo_inspect(arguments: argparse.Namespace) -> int:
    from .observability import MetricsSnapshot
    from .topology import load_manifest
    from .topology.pull import pull_control, pull_stats_payload

    try:
        manifest = load_manifest(arguments.dir)

        async def gather():
            collectors = []
            rollup = MetricsSnapshot.empty()
            for entry in manifest["collectors"]:
                host, port = entry["host"], int(entry["port"])
                try:
                    answer = await pull_stats_payload(host, port, timeout=5.0)
                    collectors.append(
                        {"reachable": True, "stats": answer["stats"]}
                    )
                    # Tree-wide metrics rollup: every collector's snapshot
                    # folds in through the same additive merge algebra the
                    # checkpoint fan-in uses.
                    metrics_state = answer.get("metrics")
                    if isinstance(metrics_state, dict):
                        try:
                            rollup = rollup.merge(
                                MetricsSnapshot.from_state_dict(metrics_state)
                            )
                        except ValueError:
                            pass  # version-skewed collector: skip its metrics
                except ReproError as error:
                    collectors.append(
                        {
                            "reachable": False,
                            "collector_id": entry["collector_id"],
                            "error": str(error),
                        }
                    )
            oracle = manifest.get("supervisor") or {}
            verdict = None
            if oracle.get("port"):
                try:
                    answer = await pull_control(
                        str(oracle["host"]),
                        int(oracle["port"]),
                        {"what": "recovered"},
                        timeout=5.0,
                    )
                    verdict = answer.payload
                except ReproError as error:
                    verdict = {"error": str(error)}
            return {
                "manifest": manifest,
                "collectors": collectors,
                "supervisor": verdict,
                "metrics": rollup.state_dict(),
            }

        payload = asyncio.run(gather())
    except (ReproError, OSError, ValueError) as error:
        print(f"topo inspect: {error}", file=sys.stderr)
        return 2
    json.dump(payload, sys.stdout, indent=2)
    print()
    return 0


def _expected_reports_by_collector(
    arguments: argparse.Namespace, manifest: Dict
) -> Optional[Dict[str, int]]:
    """Map a `repro load --json` report's per-target ACK counts onto
    collector ids, via the manifest's address book."""
    if not getattr(arguments, "expected_reports", None):
        return None
    from .core.exceptions import CollectionServiceError

    try:
        with open(arguments.expected_reports, encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, ValueError) as error:
        raise CollectionServiceError(
            f"cannot read the load report "
            f"{arguments.expected_reports}: {error}"
        ) from error
    by_target = report.get("acked_by_target")
    if not isinstance(by_target, dict):
        raise CollectionServiceError(
            f"load report {arguments.expected_reports} carries no "
            f"acked_by_target ledger — re-run `repro load --json` with "
            f"this build"
        )
    from .topology.aggregator import expected_by_collector

    try:
        return expected_by_collector(manifest["collectors"], by_target)
    except CollectionServiceError as error:
        raise CollectionServiceError(
            f"load report {arguments.expected_reports}: {error}"
        ) from error


def _run_topo_finalize(arguments: argparse.Namespace) -> int:
    """Fan in an existing tree from outside the launcher process.

    Live collectors are pulled over the wire; unreachable ones fall back
    to their durable snapshot and commit log.  It is the walk the
    launcher's supervisor runs (:func:`repro.topology.walk`), and the
    ledger labels a quarantined state ``quarantined`` as the supervisor's
    does, so the estimates and coverage match what the launcher would
    print for the same collector states.
    """
    from .core.exceptions import PartialCoverageError
    from .topology import fan_in, load_manifest

    try:
        manifest = load_manifest(arguments.dir)
        gathered = fan_in(manifest, partial=True)
        for note in gathered.notes:
            print(f"topo finalize: {note}", file=sys.stderr)
        aggregator = gathered.aggregator
        expected = _expected_reports_by_collector(arguments, manifest)
        coverage = aggregator.coverage_report(
            expected=expected, lost=gathered.lost, statuses=gathered.statuses
        )
        if not coverage.complete:
            print(coverage.summary(), file=sys.stderr)
        if not arguments.allow_partial:
            coverage.raise_if_partial("topo finalize")
        merged = aggregator.merged_session()
        estimator = merged.snapshot() if merged.num_reports else None
        rendered, payload = _release(estimator, merged)
        payload["topology"] = {
            "collectors": list(aggregator.collector_ids),
            "unreachable": gathered.unreachable,
            "reports": merged.num_reports,
        }
        payload["coverage"] = coverage.to_dict()
    except PartialCoverageError as error:
        print(f"topo finalize: {error}", file=sys.stderr)
        return 3
    except (ReproError, OSError, ValueError) as error:
        print(f"topo finalize: {error}", file=sys.stderr)
        return 2
    return _emit(arguments, rendered, payload)


def _run_topo(arguments: argparse.Namespace) -> int:
    if arguments.topo_command == "launch":
        return _run_topo_launch(arguments)
    if arguments.topo_command == "inspect":
        return _run_topo_inspect(arguments)
    return _run_topo_finalize(arguments)


def _watch_targets(arguments: argparse.Namespace) -> List[Tuple[str, int]]:
    """Resolve watch targets from HOST:PORT operands and/or a manifest."""
    targets: List[Tuple[str, int]] = []
    for operand in arguments.targets:
        host, separator, port_text = operand.rpartition(":")
        if not separator or not host:
            raise ValueError(f"watch target {operand!r} is not HOST:PORT")
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(
                f"watch target {operand!r} has a non-numeric port"
            ) from None
        targets.append((host, port))
    if arguments.topology:
        from .topology import load_manifest

        manifest = load_manifest(arguments.topology)
        for entry in manifest["collectors"]:
            targets.append((str(entry["host"]), int(entry["port"])))
    if not targets:
        raise ValueError(
            "watch needs at least one HOST:PORT target or --topology DIR"
        )
    return targets


def _run_watch(arguments: argparse.Namespace) -> int:
    from .observability.watch import RateTracker, render_watch, sample_targets

    try:
        targets = _watch_targets(arguments)
    except (ValueError, ReproError, OSError) as error:
        print(f"watch: {error}", file=sys.stderr)
        return 2
    tracker = RateTracker()
    try:
        while True:
            payloads = asyncio.run(
                sample_targets(targets, timeout=arguments.timeout)
            )
            if arguments.json:
                json.dump(payloads, sys.stdout)
                sys.stdout.write("\n")
                sys.stdout.flush()
            else:
                print(render_watch(payloads, tracker))
            if arguments.once:
                # A single frame cannot show interval rates; still exit
                # non-zero if nothing answered, so scripts can assert
                # liveness with `repro watch --once`.
                reachable = sum(
                    1 for payload in payloads if not payload.get("error")
                )
                return 0 if reachable else 1
            print(file=sys.stdout)
            time.sleep(max(arguments.interval, 0.1))
    except KeyboardInterrupt:
        return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    arguments = _build_parser().parse_args(argv)
    configure_logging(arguments.log_level, json_mode=arguments.log_json)
    try:
        if arguments.command == "list":
            return _run_list(arguments)
        if arguments.command == "encode":
            return _run_encode(arguments)
        if arguments.command == "aggregate":
            return _run_aggregate(arguments)
        if arguments.command == "serve":
            return _run_serve(arguments)
        if arguments.command == "load":
            return _run_load(arguments)
        if arguments.command == "topo":
            return _run_topo(arguments)
        if arguments.command == "watch":
            return _run_watch(arguments)
        return _run_experiment(arguments)
    except BrokenPipeError:
        # Downstream closed early (e.g. `repro aggregate | head`); point
        # stdout at devnull so the interpreter's shutdown flush cannot
        # raise again, and exit quietly.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, AttributeError, ValueError):  # best effort
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
