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
import dataclasses
import json
import os
import signal
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core.backends import BACKEND_ENV_VAR, set_default_backend
from .core.domain import Domain
from .core.exceptions import ReproError
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
from .server import CollectionServer, LoadGenerator, MultiProcessCollector
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
        help="worker count for the thread/process executors",
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
        "print the estimated marginals",
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
        "--json", metavar="PATH",
        help="also write the estimates and session metadata to this JSON file",
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
        help="run P collector processes sharing the port via SO_REUSEPORT; "
        "their checkpoints merge to the same estimates as one process; the "
        "kernel balances connections, not groups (default: 1)",
    )
    serve_parser.add_argument(
        "--kernel-backend", metavar="NAME", default=None,
        help="decode-kernel backend for this collection (native, numpy, "
        "threaded or auto; default: $REPRO_KERNEL_BACKEND, then auto, which "
        "is native when its C scan built and threaded otherwise)",
    )
    serve_parser.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="checkpoint every shard to DIR/shard-NN.npz on shutdown "
        "(and periodically with --checkpoint-interval)",
    )
    serve_parser.add_argument(
        "--checkpoint-interval", type=float, default=None, metavar="SEC",
        help="also checkpoint every SEC seconds while serving",
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
        "--stats-interval", type=float, default=None, metavar="SEC",
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
        "--connect-timeout", type=float, default=10.0, metavar="SEC",
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
        "--max-retries", type=int, default=None, metavar="R",
        help="retry each group up to R times with exponential backoff and "
        "full jitter (default: the legacy 3-retry linear schedule)",
    )
    load_parser.add_argument(
        "--retry-base-delay", type=float, default=None, metavar="SEC",
        help="first retry backoff in seconds (default: "
        f"{resilience_defaults.DEFAULT_BASE_DELAY})",
    )
    load_parser.add_argument(
        "--retry-max-delay", type=float, default=None, metavar="SEC",
        help="backoff growth cap in seconds (default: "
        f"{resilience_defaults.DEFAULT_MAX_DELAY})",
    )
    load_parser.add_argument(
        "--retry-deadline", type=float, default=None, metavar="SEC",
        help="give up retrying a group SEC seconds after its first attempt "
        "(default: attempt-bounded only)",
    )
    load_parser.add_argument(
        "--breaker", action="store_true",
        help="run a per-collector circuit breaker: after repeated failures "
        "a target is failed fast until a half-open probe succeeds",
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
        "throughput, per-shard report counts, breaker states, and the "
        "theory-derived expected-error half-width",
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
        "--interval", type=float, default=2.0, metavar="SEC",
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
        "--timeout", type=float, default=5.0, metavar="SEC",
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
        "--checkpoint-interval", type=float, default=None, metavar="SEC",
        help="also snapshot each collector's durable state.npz every SEC "
        "seconds (on top of the per-ACK commit-log appends)",
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
        "--publish-resilience", action="store_true",
        help="record the default retry/timeout/circuit-breaker policies in "
        "the manifest so `repro load --topology` clients adopt them "
        "without extra flags",
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

    hh_parser = subparsers.add_parser(
        "hh",
        help="heavy-hitter discovery: partition users across prefix-tree "
        "levels, run a frequency oracle per level, and walk the tree "
        "for the top-k",
    )
    hh_subparsers = hh_parser.add_subparsers(dest="hh_command", required=True)

    def _add_hh_protocol_arguments(
        parser: argparse.ArgumentParser, require_epsilon: bool
    ) -> None:
        parser.add_argument(
            "--epsilon", type=float, required=require_epsilon,
            help="per-user privacy budget (one report per user, so the "
            "whole discovery is epsilon-LDP with no composition)",
        )
        parser.add_argument(
            "--width", type=_positive_int, default=2, metavar="K",
            help="marginal workload width k for itemset queries on the "
            "final estimator (default: 2)",
        )
        parser.add_argument(
            "--oracle", choices=("InpOLH", "InpHT", "InpHTCMS"),
            default="InpOLH",
            help="per-level frequency oracle (default: InpOLH)",
        )
        parser.add_argument(
            "--fanout", type=_positive_int, default=2, metavar="F",
            help="prefix bits each level adds (default: 2)",
        )
        parser.add_argument(
            "--threshold", type=float, default=0.0, metavar="T",
            help="fixed pruning threshold; 0 = adaptive, each level prunes "
            "at its oracle's confidence half-width (default: 0)",
        )
        parser.add_argument(
            "--top-k", type=_positive_int, default=8, metavar="K",
            dest="top_k", help="heavy hitters to emit (default: 8)",
        )
        parser.add_argument(
            "--option", action="append", default=[], metavar="KEY=VALUE",
            help="extra HH protocol option, e.g. --option width=512 for "
            "the InpHTCMS sketch (repeatable; value parsed as JSON; "
            "overrides the dedicated flags above)",
        )

    def _add_hh_dataset_arguments(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--dataset", choices=DATASET_NAMES, default="skewed",
            help="population generator simulating the clients "
            "(default: skewed — a zipf-style heavy-tailed population)",
        )
        parser.add_argument(
            "-n", "--population", type=_positive_int, default=20_000,
            metavar="N", help="number of simulated users (default: 20000)",
        )
        parser.add_argument(
            "--seed", type=int, default=20180610, help="master random seed"
        )
        parser.add_argument(
            "--batch-size", type=_positive_int, default=None, metavar="B",
            help="encode the population in record batches of this size "
            "(default: one batch)",
        )

    hh_encode = hh_subparsers.add_parser(
        "encode",
        help="client side: partition a simulated population across prefix "
        "levels and emit serialized HH report frames",
    )
    _add_hh_protocol_arguments(hh_encode, require_epsilon=True)
    _add_hh_dataset_arguments(hh_encode)
    hh_encode.add_argument(
        "-d", "--dimension", type=_positive_int, default=8, metavar="D",
        help="number of binary attributes (default: 8)",
    )
    hh_encode.add_argument(
        "--spec-out", metavar="PATH",
        help="also write the protocol spec (the out-of-band client/server "
        "contract) to this JSON file",
    )
    hh_encode.add_argument(
        "--output", default="-", metavar="PATH",
        help="where to write the report frames ('-' = stdout, the default)",
    )

    hh_aggregate = hh_subparsers.add_parser(
        "aggregate",
        help="server side: feed HH report frames to an AggregationSession "
        "and print the discovered top-k",
    )
    hh_aggregate.add_argument(
        "--spec", metavar="PATH",
        help="protocol spec JSON written by 'hh encode --spec-out' "
        "(required unless --restore is given)",
    )
    hh_domain_group = hh_aggregate.add_mutually_exclusive_group()
    hh_domain_group.add_argument(
        "-d", "--dimension", type=_positive_int, metavar="D",
        help="number of binary attributes (names default to attr0..attrD-1)",
    )
    hh_domain_group.add_argument(
        "--attributes", metavar="A,B,C",
        help="comma-separated attribute names of the collection domain",
    )
    hh_aggregate.add_argument(
        "--input", default="-", metavar="PATH",
        help="report-frame stream to consume ('-' = stdin, the default; "
        "'none' = no frames, e.g. to re-discover from a checkpoint)",
    )
    hh_aggregate.add_argument(
        "--restore", metavar="PATH",
        help="resume a checkpointed session instead of starting fresh",
    )
    hh_aggregate.add_argument(
        "--checkpoint", metavar="PATH",
        help="write the session checkpoint here after ingesting the frames",
    )
    hh_aggregate.add_argument(
        "--top-k", type=_positive_int, default=None, metavar="K",
        dest="top_k", help="override the spec's top-k at discovery time",
    )
    hh_aggregate.add_argument(
        "--confidence", type=float, default=0.95, metavar="C",
        help="two-sided confidence level for the frequency intervals "
        "(default: 0.95)",
    )
    hh_aggregate.add_argument(
        "--json", metavar="PATH",
        help="also write the discovery result and session metadata to "
        "this JSON file",
    )
    hh_aggregate.add_argument(
        "--output", metavar="PATH",
        help="also write the rendered text result to this file",
    )

    hh_discover = hh_subparsers.add_parser(
        "discover",
        help="end to end: simulate the population, collect the reports "
        "(in-process, or through a `repro topo launch` tree), and score "
        "the discovered top-k against the exact one",
    )
    _add_hh_protocol_arguments(hh_discover, require_epsilon=False)
    _add_hh_dataset_arguments(hh_discover)
    hh_discover.add_argument(
        "-d", "--dimension", type=_positive_int, default=8, metavar="D",
        help="number of binary attributes (default: 8; --topology mode "
        "takes the domain from the manifest instead)",
    )
    hh_discover.add_argument(
        "--confidence", type=float, default=0.95, metavar="C",
        help="two-sided confidence level for the frequency intervals "
        "(default: 0.95)",
    )
    hh_discover.add_argument(
        "--topology", metavar="DIR", default=None,
        help="collect through a running `repro topo launch` tree instead "
        "of in-process: the contract comes from DIR/topology.json, the "
        "encoded frames are driven at the collectors by a client fleet, "
        "and the per-collector states are fanned in before discovery",
    )
    hh_discover.add_argument(
        "--clients", type=_positive_int, default=3, metavar="C",
        help="concurrent clients for --topology mode (default: 3)",
    )
    hh_discover.add_argument(
        "--connect-timeout", type=float, default=10.0, metavar="SEC",
        help="keep retrying the first connect for SEC seconds (default: 10)",
    )
    hh_discover.add_argument(
        "--token-prefix", metavar="P", default=None,
        help="idempotency-token prefix for --topology mode (default: a "
        "fresh per-run value)",
    )
    hh_discover.add_argument(
        "--json", metavar="PATH",
        help="write the discovery result, the exact top-k and the "
        "precision/recall score to this JSON file",
    )
    hh_discover.add_argument(
        "--output", metavar="PATH",
        help="also write the rendered text result to this file",
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
            "tuning_options": sorted(instance.tuning_options()),
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
    streaming_overrides = {}
    if arguments.batch_size is not None:
        streaming_overrides["batch_size"] = arguments.batch_size
    if arguments.shards is not None:
        streaming_overrides["shards"] = arguments.shards
    if arguments.executor is not None:
        streaming_overrides["executor"] = arguments.executor
    if arguments.workers is not None:
        streaming_overrides["workers"] = arguments.workers
    if (
        arguments.shards is not None
        and arguments.shards > 1
        and arguments.batch_size is None
    ):
        print(
            "--shards > 1 requires --batch-size: without batching the whole "
            "dataset is a single report batch and only one shard would be used",
            file=sys.stderr,
        )
        return 2
    if (
        arguments.workers is not None
        and arguments.workers > 1
        and (arguments.executor or "serial") == "serial"
    ):
        print(
            "--workers > 1 has no effect with the serial executor; add "
            "--executor thread or --executor process",
            file=sys.stderr,
        )
        return 2
    if (
        arguments.workers is not None
        and arguments.workers > 1
        and (arguments.shards or 1) < 2
    ):
        print(
            "--workers > 1 requires --shards > 1: parallelism is per-shard, "
            "so extra workers would idle on a single shard",
            file=sys.stderr,
        )
        return 2
    if streaming_overrides:
        if not isinstance(config, SweepConfig):
            print(
                f"--batch-size/--shards/--executor/--workers only apply to "
                f"sweep experiments; {arguments.experiment} is not one",
                file=sys.stderr,
            )
            return 2
        config = dataclasses.replace(config, **streaming_overrides)
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


def _render_estimates(estimator, session: AggregationSession) -> str:
    """Human-readable estimates (``estimator=None`` for an empty session)."""
    lines = [
        f"protocol  : {session.spec.describe()}",
        f"reports   : {session.num_reports}",
    ]
    metadata = session.metadata
    if metadata["wire_bytes_per_report"] is not None:
        lines.append(
            f"wire      : {metadata['wire_bytes_total']} bytes in "
            f"{metadata['wire_batches']} frame(s), "
            f"{8.0 * metadata['wire_bytes_per_report']:.1f} bits/user"
        )
    if estimator is None:
        return "\n".join(lines)
    lines.append("")
    for beta, table in sorted(estimator.query_all().items()):
        names = ",".join(estimator.domain.names_of(beta))
        values = " ".join(f"{value:.4f}" for value in table.values)
        lines.append(f"{names}: {values}")
    return "\n".join(lines)


def _estimates_payload(estimator, session: AggregationSession) -> Dict:
    """JSON estimates payload; one shape whether or not reports arrived
    (``estimator=None`` simply yields empty ``marginals``)."""
    return {
        "spec": session.spec.to_dict(),
        "num_reports": session.num_reports,
        "session": session.metadata,
        "attributes": list(session.domain.attributes),
        "marginals": [
            {
                "attributes": estimator.domain.names_of(beta),
                "values": [float(value) for value in table.values],
            }
            for beta, table in sorted(estimator.query_all().items())
        ]
        if estimator is not None
        else [],
    }


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
        # exists.  The rest of the stream is ingested one frame at a time —
        # constant memory for arbitrarily large collections, matching the
        # --input FILE path.
        stdin_frames = None
        first_frame = None
        if not no_input and arguments.input == "-":
            stdin_frames = split_report_frames(sys.stdin.buffer)
            first_frame = next(stdin_frames, None)
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
        if stdin_frames is not None:
            if first_frame is not None:
                session.submit(first_frame)
                for frame in stdin_frames:
                    session.submit(frame)
        elif not no_input:
            with open(arguments.input, "rb") as source:
                for frame in split_report_frames(source):
                    session.submit(frame)
        if arguments.checkpoint:
            session.checkpoint(arguments.checkpoint)
            print(f"wrote {arguments.checkpoint}", file=sys.stderr)
        estimator = session.snapshot()
    except BrokenPipeError:
        raise  # handled quietly in main(); not an aggregate failure
    except (ReproError, OSError, ValueError) as error:
        # OSError: missing/unreadable --input or checkpoint paths.
        print(f"aggregate: {error}", file=sys.stderr)
        return 2
    rendered = _render_estimates(estimator, session)
    print(rendered)
    if arguments.output:
        with open(arguments.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {arguments.output}", file=sys.stderr)
    if arguments.json:
        with open(arguments.json, "w", encoding="utf-8") as handle:
            json.dump(_estimates_payload(estimator, session), handle, indent=2)
            handle.write("\n")
        print(f"wrote {arguments.json}", file=sys.stderr)
    return 0


async def _serve_stats_ticker(
    server: CollectionServer, interval: float
) -> None:
    """Log a one-line throughput summary every ``interval`` seconds."""
    logger = get_logger("serve")
    last_reports = 0
    last_bytes = 0
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


async def _serve_main(
    server: CollectionServer, stats_interval: Optional[float] = None
) -> None:
    """Start the server, announce readiness, serve until a stop signal."""
    loop = asyncio.get_running_loop()
    logger = get_logger("serve")
    registered = []
    # Handlers first, readiness line second: a supervisor that signals the
    # moment it sees the line must always get the graceful shutdown.
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, server.request_stop)
            registered.append(signum)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-unix loops / nested loops: Ctrl-C still interrupts
    ticker = None
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
        for signum in registered:
            loop.remove_signal_handler(signum)


def _serve_multiprocess(arguments: argparse.Namespace, spec, domain):
    """``serve --processes P``: SO_REUSEPORT workers merged via checkpoints.

    Returns ``(combined_session, stats_payload)``.  Without an explicit
    ``--checkpoint-dir`` the worker checkpoints (the merge channel) live in
    a temporary directory deleted after the merge.
    """
    checkpoint_dir = arguments.checkpoint_dir
    scratch = None
    if checkpoint_dir is None:
        scratch = tempfile.TemporaryDirectory(prefix="repro-serve-")
        checkpoint_dir = scratch.name
    try:
        extra = {}
        if arguments.max_frame_bytes is not None:
            extra["max_frame_bytes"] = arguments.max_frame_bytes
        collector = MultiProcessCollector(
            spec,
            domain,
            processes=arguments.processes,
            checkpoint_dir=checkpoint_dir,
            host=arguments.host,
            port=arguments.port,
            shards=arguments.shards,
            stop_after_reports=arguments.stop_after_reports,
            **extra,
        )
        previous = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(
                    signum, lambda *_: collector.stop()
                )
            except (ValueError, OSError):  # pragma: no cover - non-main thread
                pass
        try:
            collector.start()
            get_logger("serve").info(
                "serving %s over %d attribute(s) on %s:%d "
                "(%d process(es), %d shard(s) each)",
                spec.describe(),
                domain.dimension,
                arguments.host,
                collector.port,
                arguments.processes,
                arguments.shards,
            )
            combined = collector.join()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
    finally:
        if scratch is not None:
            scratch.cleanup()
    metadata = combined.metadata
    get_logger("serve").info(
        "collected %d reports in %d frame(s) across %d worker process(es)",
        combined.num_reports,
        metadata["wire_batches"],
        arguments.processes,
    )
    stats = {
        "address": {"host": arguments.host, "port": collector.port},
        "spec": spec.to_dict(),
        "processes": arguments.processes,
        "reports": combined.num_reports,
        "frames": metadata["wire_batches"],
        "bytes": metadata["wire_bytes_total"],
    }
    if collector.metrics_snapshot is not None:
        stats["metrics"] = collector.metrics_snapshot.state_dict()
    return combined, stats


def _run_serve(arguments: argparse.Namespace) -> int:
    try:
        spec, domain = _contract_from_args(arguments)
        if arguments.checkpoint_interval is not None and not arguments.checkpoint_dir:
            print(
                "serve: --checkpoint-interval requires --checkpoint-dir",
                file=sys.stderr,
            )
            return 2
        if arguments.kernel_backend:
            # Validate and pin the decode backend; the env var carries the
            # choice into --processes workers regardless of start method.
            set_default_backend(arguments.kernel_backend)
            os.environ[BACKEND_ENV_VAR] = arguments.kernel_backend
        if arguments.processes > 1:
            if arguments.checkpoint_interval is not None:
                print(
                    "serve: --checkpoint-interval is not supported with "
                    "--processes > 1 (workers checkpoint on shutdown)",
                    file=sys.stderr,
                )
                return 2
            if arguments.metrics_port is not None or (
                arguments.stats_interval is not None
            ):
                print(
                    "serve: --metrics-port/--stats-interval need the "
                    "single-process server (workers cannot share one "
                    "scrape socket); drop --processes or the metrics flags",
                    file=sys.stderr,
                )
                return 2
            combined, stats = _serve_multiprocess(arguments, spec, domain)
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
                checkpoint_interval=arguments.checkpoint_interval,
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
        rendered = _render_estimates(estimator, combined)
        payload = _estimates_payload(estimator, combined)
    except (ReproError, OSError, ValueError) as error:
        # OSError: the port is taken or the checkpoint dir is unwritable.
        print(f"serve: {error}", file=sys.stderr)
        return 2
    print(rendered)
    if arguments.output:
        with open(arguments.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {arguments.output}", file=sys.stderr)
    if arguments.json:
        payload["server"] = stats
        with open(arguments.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {arguments.json}", file=sys.stderr)
    return 0


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
    if manifest.get("resilience"):
        from .resilience import ResilienceConfig

        kwargs["resilience"] = ResilienceConfig.from_dict(
            manifest["resilience"]
        )
    return spec, domain, kwargs


def _retry_policy_from_args(arguments: argparse.Namespace):
    """Build the fleet's RetryPolicy from ``repro load`` flags.

    Returns None when no retry flag was given, which keeps
    :class:`~repro.server.LoadGenerator`'s legacy linear schedule (or the
    manifest's published policy in --topology mode).
    """
    if (
        arguments.max_retries is None
        and arguments.retry_base_delay is None
        and arguments.retry_max_delay is None
        and arguments.retry_deadline is None
    ):
        return None
    from .resilience import RetryPolicy

    base = (
        arguments.retry_base_delay
        if arguments.retry_base_delay is not None
        else resilience_defaults.DEFAULT_BASE_DELAY
    )
    cap = (
        arguments.retry_max_delay
        if arguments.retry_max_delay is not None
        else max(resilience_defaults.DEFAULT_MAX_DELAY, base)
    )
    return RetryPolicy(
        max_retries=(
            arguments.max_retries
            if arguments.max_retries is not None
            else resilience_defaults.DEFAULT_MAX_RETRIES
        ),
        base_delay=base,
        max_delay=cap,
        growth=resilience_defaults.DEFAULT_GROWTH,
        jitter=resilience_defaults.DEFAULT_JITTER,
        deadline=arguments.retry_deadline,
    )


def _run_load(arguments: argparse.Namespace) -> int:
    try:
        if arguments.topology:
            spec, domain, topology_kwargs = _load_topology_contract(arguments)
        else:
            spec, domain = _contract_from_args(arguments)
            topology_kwargs = {
                "host": arguments.host,
                "port": arguments.port,
            }
            if arguments.token_prefix:
                topology_kwargs["token_prefix"] = arguments.token_prefix
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
        policy_kwargs: Dict = {}
        retry = _retry_policy_from_args(arguments)
        if retry is not None:
            policy_kwargs["retry"] = retry
        if arguments.breaker:
            policy_kwargs["breaker"] = (
                resilience_defaults.default_breaker_policy()
            )
        if arguments.spool_dir:
            policy_kwargs["spool_dir"] = arguments.spool_dir
        fleet = LoadGenerator(
            spec,
            domain,
            frames=frames,
            **topology_kwargs,
            **policy_kwargs,
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


async def _topo_durable_reports(supervisor) -> int:
    """Durably acknowledged reports across the whole tree, counted once.

    Live collectors report ``sum(shard_reports)`` — shard sessions only
    grow when a group is folded (ACK'd) in durable mode — and dead ones
    contribute their recovered checkpoint.  Restarted collectors resume
    from the same checkpoint the supervisor drops on restart, so nothing
    is counted twice.
    """
    from .topology.pull import pull_stats

    total = sum(
        state.num_reports for state in supervisor.recovered_states().values()
    )
    for handle in supervisor.handles:
        if handle.status != "live":
            continue
        try:
            stats = await pull_stats(handle.host, handle.port, timeout=5.0)
        except ReproError:
            continue  # death between health checks; next tick recovers it
        total += sum(stats.get("shard_reports", []))
    return total


async def _topo_launch_main(arguments, topology) -> Dict:
    """Serve the tree until stopped/complete; returns the final stats."""
    supervisor = topology.supervisor
    stop_requested = asyncio.Event()
    loop = asyncio.get_running_loop()
    registered = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop_requested.set)
            registered.append(signum)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-unix loops / nested loops: Ctrl-C still interrupts
    killed = None
    try:
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
        while not stop_requested.is_set():
            supervisor.health_check()
            durable = await _topo_durable_reports(supervisor)
            if (
                killed is None
                and arguments.kill_after_reports is not None
                and durable >= arguments.kill_after_reports
            ):
                index = arguments.kill_collector
                if not 0 <= index < arguments.collectors:
                    raise ReproError(
                        f"--kill-collector {index} is out of range for "
                        f"{arguments.collectors} collector(s)"
                    )
                if supervisor.is_alive(index):
                    supervisor.kill(index)
                    killed = supervisor.handles[index].collector_id
                    get_logger("topo").info(
                        "topology: killed collector %s after %d durable "
                        "report(s)",
                        killed,
                        durable,
                    )
            if (
                arguments.stop_after_reports is not None
                and durable >= arguments.stop_after_reports
            ):
                break
            try:
                await asyncio.wait_for(stop_requested.wait(), 0.2)
            except asyncio.TimeoutError:
                pass
        aggregator = await topology.collect()
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
        for signum in registered:
            loop.remove_signal_handler(signum)
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
            checkpoint_interval=arguments.checkpoint_interval,
            resilience=(
                resilience_defaults.default_resilience_config()
                if arguments.publish_resilience
                else None
            ),
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
    rendered = _render_estimates(estimator, merged)
    payload = _estimates_payload(estimator, merged)
    payload["topology"] = stats
    print(rendered)
    if arguments.output:
        with open(arguments.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {arguments.output}", file=sys.stderr)
    if arguments.json:
        with open(arguments.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {arguments.json}", file=sys.stderr)
    return 0


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
    by_address = {
        f"{entry['host']}:{int(entry['port'])}": entry["collector_id"]
        for entry in manifest["collectors"]
    }
    expected: Dict[str, int] = {}
    for address, counts in by_target.items():
        collector_id = by_address.get(str(address))
        if collector_id is None:
            raise CollectionServiceError(
                f"load report {arguments.expected_reports} credits "
                f"{address}, which is not a collector in this topology"
            )
        expected[collector_id] = expected.get(collector_id, 0) + int(
            counts.get("reports", 0)
        )
    return expected


def _run_topo_finalize(arguments: argparse.Namespace) -> int:
    """Fan in an existing tree from outside the launcher process.

    Live collectors are pulled over the wire; unreachable ones fall back
    to their durable snapshot and commit log — the same
    supersede-by-collector-id merge the supervisor performs, so the result
    is identical to what the launcher would print.
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
        if estimator is not None:
            estimator.metadata["coverage"] = coverage.to_dict()
        rendered = _render_estimates(estimator, merged)
        payload = _estimates_payload(estimator, merged)
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
    print(rendered)
    if arguments.json:
        with open(arguments.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {arguments.json}", file=sys.stderr)
    return 0


def _run_topo(arguments: argparse.Namespace) -> int:
    if arguments.topo_command == "launch":
        return _run_topo_launch(arguments)
    if arguments.topo_command == "inspect":
        return _run_topo_inspect(arguments)
    return _run_topo_finalize(arguments)


def _hh_option_strings(arguments: argparse.Namespace) -> list:
    """The dedicated ``hh`` flags as KEY=VALUE strings for _parse_options.

    Placed *before* the user's raw ``--option`` pairs so an explicit
    ``--option`` always wins over a dedicated flag's default.
    """
    return [
        f"oracle={json.dumps(arguments.oracle)}",
        f"fanout={arguments.fanout}",
        f"threshold={arguments.threshold}",
        f"top_k={arguments.top_k}",
    ]


def _render_discovery(result, spec: ProtocolSpec, num_reports: int) -> str:
    """Human-readable discovery walk (``result=None`` for no reports)."""
    lines = [
        f"protocol  : {spec.describe()}",
        f"reports   : {num_reports}",
    ]
    if result is None:
        lines.append("no reports; nothing to discover")
        return "\n".join(lines)
    lines.append(
        "levels    : "
        + "  ".join(
            f"b={bits}:n={count},cut={threshold:.4f}"
            for bits, count, threshold in zip(
                result.level_bits, result.level_reports, result.thresholds
            )
        )
    )
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


def _run_hh_encode(arguments: argparse.Namespace) -> int:
    # `hh encode` is `encode` with the protocol pinned to HH and the
    # dedicated discovery flags folded into the option list.
    arguments.protocol = "HH"
    arguments.option = _hh_option_strings(arguments) + list(arguments.option)
    return _run_encode(arguments)


def _run_hh_aggregate(arguments: argparse.Namespace) -> int:
    try:
        if arguments.restore and (
            arguments.spec or arguments.dimension or arguments.attributes
        ):
            print(
                "hh aggregate: --restore carries the session's own spec and "
                "domain; --spec/--dimension/--attributes cannot be combined "
                "with it",
                file=sys.stderr,
            )
            return 2
        domain = None
        if not arguments.restore:
            if not arguments.spec:
                print(
                    "hh aggregate: --spec is required unless --restore is "
                    "given",
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
                    "hh aggregate: pass --dimension or --attributes to "
                    "describe the collection domain (or --restore a "
                    "checkpoint)",
                    file=sys.stderr,
                )
                return 2
        no_input = arguments.input == "none" or (
            arguments.restore
            and arguments.input == "-"
            and sys.stdin.isatty()
        )
        # Same first-frame trick as `aggregate`: in an `hh encode |
        # hh aggregate` pipeline, having one frame (or EOF) in hand
        # guarantees the producer already wrote --spec-out.
        stdin_frames = None
        first_frame = None
        if not no_input and arguments.input == "-":
            stdin_frames = split_report_frames(sys.stdin.buffer)
            first_frame = next(stdin_frames, None)
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
        if session.spec.protocol != "HH":
            print(
                f"hh aggregate: the spec describes "
                f"{session.spec.protocol!r}, not the HH discovery protocol "
                f"(use plain `repro aggregate` for marginal estimates)",
                file=sys.stderr,
            )
            return 2
        if stdin_frames is not None:
            if first_frame is not None:
                session.submit(first_frame)
                for frame in stdin_frames:
                    session.submit(frame)
        elif not no_input:
            with open(arguments.input, "rb") as source:
                for frame in split_report_frames(source):
                    session.submit(frame)
        if arguments.checkpoint:
            session.checkpoint(arguments.checkpoint)
            print(f"wrote {arguments.checkpoint}", file=sys.stderr)
        estimator = session.snapshot()
        result = (
            estimator.discover(
                top_k=arguments.top_k, confidence=arguments.confidence
            )
            if estimator is not None
            else None
        )
    except BrokenPipeError:
        raise  # handled quietly in main(); not an aggregate failure
    except (ReproError, OSError, ValueError) as error:
        print(f"hh aggregate: {error}", file=sys.stderr)
        return 2
    rendered = _render_discovery(result, session.spec, session.num_reports)
    print(rendered)
    if arguments.output:
        with open(arguments.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {arguments.output}", file=sys.stderr)
    if arguments.json:
        payload = {
            "spec": session.spec.to_dict(),
            "num_reports": session.num_reports,
            "session": session.metadata,
            "discovery": result.to_dict() if result is not None else None,
        }
        with open(arguments.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {arguments.json}", file=sys.stderr)
    return 0


def _hh_topology_fan_in(arguments: argparse.Namespace) -> AggregationSession:
    """Fan in the tree's per-collector states for discovery.

    The same walk as ``topo finalize``, kept strict: a collector that is
    unreachable *and* left no durable state is an error, because a
    partial fan-in would silently skew the top-k.
    """
    from .topology import fan_in, load_manifest

    gathered = fan_in(load_manifest(arguments.topology))
    for note in gathered.notes:
        print(f"hh discover: {note}", file=sys.stderr)
    return gathered.aggregator.merged_session()


def _run_hh_discover(arguments: argparse.Namespace) -> int:
    from .heavyhitters import exact_top_k, precision_recall

    try:
        if arguments.topology:
            if arguments.epsilon is not None:
                print(
                    "hh discover: --topology takes the collection contract "
                    "from the tree's manifest; drop --epsilon (and the "
                    "other protocol flags)",
                    file=sys.stderr,
                )
                return 2
            spec, domain, fleet_kwargs = _load_topology_contract(arguments)
            dimension = domain.dimension
        else:
            if arguments.epsilon is None:
                print(
                    "hh discover: --epsilon is required without --topology",
                    file=sys.stderr,
                )
                return 2
            options = _parse_options(
                _hh_option_strings(arguments) + list(arguments.option)
            )
            spec = ProtocolSpec(
                protocol="HH",
                epsilon=arguments.epsilon,
                max_width=arguments.width,
                options=options,
            )
            dimension = arguments.dimension
            domain = Domain.binary(dimension)
        if spec.protocol != "HH":
            print(
                f"hh discover: the topology collects "
                f"{spec.protocol!r}, not the HH discovery protocol",
                file=sys.stderr,
            )
            return 2
        protocol = spec.build()
        if spec.max_width > dimension:
            print(
                f"hh discover: --width {spec.max_width} exceeds the "
                f"{dimension}-attribute domain",
                file=sys.stderr,
            )
            return 2

        generator = np.random.default_rng(arguments.seed)
        dataset = make_dataset(
            arguments.dataset, arguments.population, dimension, generator
        )
        if arguments.topology:
            # frames_for_dataset consumes `generator` exactly like
            # run_streaming below, so both modes perturb identically and
            # the discovered top-k is bit-for-bit comparable.
            frames = LoadGenerator.frames_for_dataset(
                spec, dataset, arguments.batch_size, rng=generator
            )
            fleet = LoadGenerator(
                spec,
                domain,
                frames=frames,
                num_clients=arguments.clients,
                connect_timeout=arguments.connect_timeout,
                **fleet_kwargs,
            )
            report = asyncio.run(fleet.run())
            print(
                f"delivered {report.acked_reports} report(s) in "
                f"{report.frames} frame(s) over {report.connections} "
                f"connection(s)",
                file=sys.stderr,
            )
            session = _hh_topology_fan_in(arguments)
            estimator = session.snapshot() if session.num_reports else None
            num_reports = session.num_reports
        else:
            estimator = protocol.run_streaming(
                dataset, generator, batch_size=arguments.batch_size
            )
            num_reports = dataset.size
        result = (
            estimator.discover(confidence=arguments.confidence)
            if estimator is not None
            else None
        )
        exact = exact_top_k(dataset, protocol.top_k)
        precision, recall = (
            precision_recall(result.indices, exact)
            if result is not None
            else (0.0, 0.0)
        )
    except BrokenPipeError:
        raise  # handled quietly in main(); not a discovery failure
    except (ReproError, OSError, ValueError) as error:
        print(f"hh discover: {error}", file=sys.stderr)
        return 2
    rendered = "\n".join(
        [
            _render_discovery(result, spec, num_reports),
            "exact     : " + " ".join(str(index) for index in exact),
            f"precision : {precision:.3f}    recall : {recall:.3f}",
        ]
    )
    print(rendered)
    if arguments.output:
        with open(arguments.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {arguments.output}", file=sys.stderr)
    if arguments.json:
        payload = {
            "spec": spec.to_dict(),
            "mode": "topology" if arguments.topology else "local",
            "dataset": {
                "name": arguments.dataset,
                "population": arguments.population,
                "dimension": dimension,
                "seed": arguments.seed,
                "batch_size": arguments.batch_size,
            },
            "num_reports": num_reports,
            "discovery": result.to_dict() if result is not None else None,
            "exact_top_k": [int(index) for index in exact],
            "precision": precision,
            "recall": recall,
        }
        with open(arguments.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {arguments.json}", file=sys.stderr)
    return 0


def _run_hh(arguments: argparse.Namespace) -> int:
    if arguments.hh_command == "encode":
        return _run_hh_encode(arguments)
    if arguments.hh_command == "aggregate":
        return _run_hh_aggregate(arguments)
    return _run_hh_discover(arguments)


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
        if arguments.command == "hh":
            return _run_hh(arguments)
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
