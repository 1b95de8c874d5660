"""The traced run: per-layer costs from a stage replay plus collector spans.

The *stage replay* pushes the workload's frames through each layer's public
call in this process, grouped the way the collectors group them, and times
every call.  The ingest stages (encode, serialize, framing, decode, fold,
and commit for its share) are timed in process CPU seconds, so they compare
directly with the collectors' CPU; commit latency and the release stages
(restore, merge, snapshot, query, discover) are timed in wall seconds, because what
they move is latency.

The *span diff* reads the collectors' own ``repro_span_seconds`` histograms
(wall time) through ``STATS`` before and after each traced pass and
subtracts nested child spans to give each span's self time.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path
from typing import Dict, List, Sequence

from repro.core.rng import spawn_rngs
from repro.server import DEFAULT_BATCH_MAX_USERS, FrameDecoder
from repro.server.server import DURABLE_STATE_FILENAME
from repro.service.session import AggregationSession

from harness import Release, discovery, marginal_answers
from workloads import BATCH_SIZE, CLIENTS, Workload

#: Receive-chunk size the replayed framing is fed in (the server's default).
CHUNK_BYTES = 1 << 16
#: Replays of the collector side per traced run; each stage keeps its
#: median, so one replay during a slow spell of the host does not set it.
REPLAY_REPEATS = 3

#: Parent span -> spans that run inside it, for self time.
SPAN_CHILDREN = {
    "ingest.flush": ("session.submit_decoded",),
    "session.submit_decoded": ("kernel.support_counts",),
    "server.checkpoint.durable": ("session.checkpoint", "session.merge"),
}
#: Collector spans whose self time the traced run reports, on every
#: workload (0 where a workload never enters the span: streams fold under
#: ``ingest.flush`` and never commit, durable trees fold at FIN).
REPORTED_SPANS = (
    "framing.absorb",
    "ingest.flush",
    "session.submit_decoded",
    "kernel.support_counts",
    "server.checkpoint.durable",
    "session.checkpoint",
)


def connection_groups(workload: Workload, count: int) -> List[List[int]]:
    """Frame indices of every connection group, in the order groups start.

    Mirrors ``LoadGenerator``: frames are dealt round-robin over the
    clients, each client cuts its share into ``frames_per_connection``
    groups, and the clients advance in lockstep.
    """
    per_client = [list(range(client, count, CLIENTS)) for client in range(CLIENTS)]
    size = workload.frames_per_connection
    cut = [
        [frames[start : start + size] for start in range(0, len(frames), size)]
        for frames in per_client
    ]
    groups = []
    for index in range(max(len(client) for client in cut)):
        groups.extend(client[index] for client in cut if index < len(client))
    return groups


def replay(
    workload: Workload,
    spec,
    domain,
    dataset,
    seed: int,
    frames: Sequence[bytes],
    scratch: Path,
) -> Dict[str, object]:
    """Time each layer's public call on the workload's frames.

    The client side is replayed once and must reproduce the measured
    frames byte for byte.  The collector side is replayed
    ``REPLAY_REPEATS`` times and each stage keeps its median.
    """
    cpu = time.process_time
    protocol = spec.build()
    out: Dict[str, object] = {"encode": 0.0, "serialize": 0.0}

    # Client: encode_batch then to_bytes, with frames_for_dataset's rngs.
    generator = workload.encode_rng(seed)
    count = dataset.num_batches(BATCH_SIZE)
    rngs = [generator] if count == 1 else spawn_rngs(generator, count)
    replayed = []
    for chunk, rng in zip(dataset.iter_batches(BATCH_SIZE), rngs):
        started = cpu()
        reports = protocol.encode_batch(chunk, rng=rng)
        encoded = cpu()
        replayed.append(reports.to_bytes())
        out["encode"] += encoded - started
        out["serialize"] += cpu() - encoded
    if replayed != list(frames):
        raise RuntimeError("the replayed encoding differs from the measured frames")

    runs = [
        _replay_collectors(workload, spec, domain, protocol, frames, scratch)
        for _ in range(REPLAY_REPEATS)
    ]
    releases = [run.pop("release") for run in runs]
    if any(not other.same_as(releases[0]) for other in releases[1:]):
        raise RuntimeError("two replays of the same frames released different answers")
    out.update({key: statistics.median(run[key] for run in runs) for key in runs[0]})
    out["release"] = releases[0]
    return out


def _replay_collectors(workload, spec, domain, protocol, frames, scratch):
    """One replay of the collectors' work: ingest, commit and release."""
    cpu, wall = time.process_time, time.perf_counter
    out = dict.fromkeys(("framing", "decode", "fold", "commit_cpu"), 0.0)

    # Each connection group in the order groups start, through a decoder
    # of its own as on its own connection, 64 KiB at a time.  Folds follow
    # the collectors' grouping: stream shards fold micro-batches of up to
    # batch_max_users reports as they fill, durable collectors one whole
    # group at FIN.  Decoded batches are dropped once folded, so memory is
    # reused as in a collector.  Every group is then committed the way a
    # durable collector commits before its ACK: its state and token map,
    # checkpointed with fsync.  The streams make no such commits; on them
    # this prices the commit that group commit on every ACK would add.
    sessions = [AggregationSession(spec, domain) for _ in range(workload.collectors)]
    tokens: List[Dict[str, dict]] = [{} for _ in sessions]
    groups = connection_groups(workload, len(frames))
    micro_batches = workload.hosting == "stream"
    commit_wall = 0.0
    commit_bytes = []

    def fold(session, batches) -> None:
        started = cpu()
        session.submit_decoded(batches)
        out["fold"] += cpu() - started

    for number, group in enumerate(groups):
        target = number % len(sessions)
        stream = memoryview(b"".join(frames[index] for index in group))
        decoder = FrameDecoder()
        pending, pending_users, reports = [], 0, 0
        for start in range(0, len(stream), CHUNK_BYTES):
            started = cpu()
            decoder.absorb(stream[start : start + CHUNK_BYTES])
            items = list(decoder.frames())
            framed = cpu()
            decoded = [protocol.decode_reports(item) for item in items]
            out["framing"] += framed - started
            out["decode"] += cpu() - framed
            for batch in decoded:
                pending.append(batch)
                pending_users += int(batch.num_users)
                reports += int(batch.num_users)
                if micro_batches and pending_users >= DEFAULT_BATCH_MAX_USERS:
                    fold(sessions[target], pending)
                    pending, pending_users = [], 0
        if pending:
            fold(sessions[target], pending)
        tokens[target][f"g{number}"] = {"frames": len(group), "reports": reports}
        path = scratch / f"c{target}" / DURABLE_STATE_FILENAME
        started_wall, started_cpu = wall(), cpu()
        sessions[target].checkpoint(
            path, extra={"collector_id": f"c{target}", "acked_tokens": tokens[target]}
        )
        commit_wall += wall() - started_wall
        out["commit_cpu"] += cpu() - started_cpu
        commit_bytes.append(path.stat().st_size)
    out["commits"] = float(len(groups))
    out["commit_ms_per_group"] = commit_wall * 1e3 / len(groups)
    out["commit_bytes"] = sum(commit_bytes) / len(commit_bytes)

    # Release: each collector's PULL payload, restored, merged, finalized
    # and queried.
    blobs = [
        session.checkpoint_bytes(
            extra={"collector_id": f"c{index}", "acked_tokens": tokens[index]}
        )
        for index, session in enumerate(sessions)
    ]
    out["state_bytes"] = float(sum(len(blob) for blob in blobs))
    started = wall()
    restored = [AggregationSession.restore_bytes(blob) for blob in blobs]
    out["restore_ms"] = (wall() - started) * 1e3
    started = wall()
    merged = AggregationSession(spec, domain)
    for session in restored:
        merged.merge(session)
    out["merge_ms"] = (wall() - started) * 1e3
    started = wall()
    estimator = merged.snapshot()
    out["snapshot_ms"] = (wall() - started) * 1e3
    started = wall()
    marginals = marginal_answers(estimator)
    out["query_ms"] = (wall() - started) * 1e3
    started = wall()
    found = discovery(estimator)
    out["discover_ms"] = (wall() - started) * 1e3
    out["release"] = Release(merged.num_reports, marginals, found)
    return out


# ---------------------------------------------------------------------- #
# collector spans


def _span_totals(payloads: Sequence[dict]) -> Dict[str, List[float]]:
    """``{span: [seconds, count]}`` summed over collector STATS payloads."""
    totals: Dict[str, List[float]] = {}
    for payload in payloads:
        family = payload["metrics"]["families"].get("repro_span_seconds")
        for key, value in (family or {}).get("series", []):
            entry = totals.setdefault(key[0], [0.0, 0])
            entry[0] += value["sum"]
            entry[1] += value["count"]
    return totals


def span_self_seconds(before: Sequence[dict], after: Sequence[dict]) -> Dict[str, dict]:
    """Each span's total and self seconds over one pass, all collectors."""
    start, end = _span_totals(before), _span_totals(after)
    spans = {
        name: {
            "seconds": seconds - start.get(name, [0.0, 0])[0],
            "count": count - start.get(name, [0.0, 0])[1],
        }
        for name, (seconds, count) in end.items()
        if count > start.get(name, [0.0, 0])[1]
    }
    for name, entry in spans.items():
        children = SPAN_CHILDREN.get(name, ())
        entry["self_seconds"] = entry["seconds"] - sum(
            spans.get(child, {"seconds": 0.0})["seconds"] for child in children
        )
    return spans


def server_counts(before: Sequence[dict], after: Sequence[dict]) -> Dict[str, int]:
    """Collector-side counters over one pass, summed over collectors.

    Every STATS probe is itself a connection, counted by the collector
    before it answers, so the ``after`` probe is taken off once per
    collector.
    """
    totals = dict.fromkeys(("frames", "connections", "rejected", "commits", "bytes"), 0)
    for first, last in zip(before, after):
        first, last = first["stats"], last["stats"]
        totals["frames"] += last["frames"] - first["frames"]
        totals["bytes"] += last["bytes"] - first["bytes"]
        totals["connections"] += (
            last["connections"]["total"] - first["connections"]["total"] - 1
        )
        totals["rejected"] += (
            last["connections"]["rejected"] - first["connections"]["rejected"]
        )
        totals["commits"] += last["checkpoints_written"] - first["checkpoints_written"]
    return totals
