"""The live STATS control frame and the HTTP scrape endpoint.

One server, real sockets: a fleet delivers reports, then a ``STATS``
probe (the same client ``repro watch`` uses) must answer with the
operational counters *and* a mergeable metrics snapshot, and the
Prometheus endpoint must serve a text exposition whose counters agree
with the stats and only ever move forward between scrapes.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.observability import MetricsSnapshot
from repro.observability.watch import request_stats, sample_targets
from repro.server import CollectionServer, LoadGenerator

from ..service.util import build, encode_frames, small_dataset

BATCH_SIZE = 16


async def http_get(host, port, path):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode("latin-1"))
    await writer.drain()
    blob = await reader.read()
    writer.close()
    head, _, body = blob.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    headers = {
        line.split(b":", 1)[0].decode().lower(): line.split(b":", 1)[1].strip().decode()
        for line in head.split(b"\r\n")[1:]
        if b":" in line
    }
    return status, headers, body.decode("utf-8")


def scrape_value(text, name):
    for line in text.splitlines():
        if line.startswith(name) and not line.startswith("#"):
            return float(line.rsplit(" ", 1)[1])
    return None


@pytest.fixture(scope="module")
def probe_results():
    """One served collection, probed over STATS and the scrape endpoint."""
    dataset = small_dataset()
    protocol = build("InpRR")
    frames = encode_frames(protocol, dataset, BATCH_SIZE)

    async def session():
        server = CollectionServer(
            protocol.spec(),
            dataset.domain,
            port=0,
            shards=2,
            metrics_port=0,
        )
        await server.start()
        empty_scrape = await http_get(
            "127.0.0.1", server.metrics_port, "/metrics"
        )
        empty_stats = await request_stats("127.0.0.1", server.port)
        fleet = LoadGenerator(
            protocol.spec(),
            dataset.domain,
            "127.0.0.1",
            server.port,
            frames=frames,
            num_clients=3,
        )
        await fleet.run()
        stats_payload = await request_stats("127.0.0.1", server.port)
        sampled = await sample_targets(
            [("127.0.0.1", server.port), ("127.0.0.1", 1)], timeout=2.0
        )
        loaded_scrape = await http_get(
            "127.0.0.1", server.metrics_port, "/metrics"
        )
        health = await http_get("127.0.0.1", server.metrics_port, "/healthz")
        lost = await http_get("127.0.0.1", server.metrics_port, "/nope")
        await server.stop()
        return {
            "num_frames": len(frames),
            "num_reports": dataset.size,
            "empty_scrape": empty_scrape,
            "empty_stats": empty_stats,
            "stats": stats_payload,
            "sampled": sampled,
            "loaded_scrape": loaded_scrape,
            "health": health,
            "lost": lost,
        }

    return asyncio.run(session())


def test_stats_answer_carries_operational_counters(probe_results):
    stats = probe_results["stats"]["stats"]
    assert stats["reports"] == probe_results["num_reports"]
    assert stats["frames"] == probe_results["num_frames"]
    assert sum(stats["shard_reports"]) == probe_results["num_reports"]
    assert stats["spec"]["protocol"] == "InpRR"
    assert stats["num_attributes"] == 4


def test_stats_answer_carries_the_collectors_cpu(probe_results):
    """User and system CPU seconds never fall across STATS answers: before
    the fleet, after it, and the watch client's probe after that."""
    answers = [
        probe_results["empty_stats"]["stats"]["cpu"],
        probe_results["stats"]["stats"]["cpu"],
        probe_results["sampled"][0]["stats"]["cpu"],
    ]
    for key in ("user_seconds", "sys_seconds"):
        values = [answer[key] for answer in answers]
        assert all(isinstance(value, float) for value in values)
        assert 0.0 <= values[0] <= values[1] <= values[2], key
    assert sum(answers[2].values()) > 0.0


def test_stats_answer_carries_a_mergeable_snapshot(probe_results):
    snapshot = MetricsSnapshot.from_state_dict(
        probe_results["stats"]["metrics"]
    )
    assert snapshot.total("repro_server_reports_total") == (
        probe_results["num_reports"]
    )
    # Mergeable exactly like checkpoints: doubling the snapshot doubles
    # the counters.
    doubled = snapshot.merge(snapshot)
    assert doubled.total("repro_server_reports_total") == (
        2 * probe_results["num_reports"]
    )


def test_sample_targets_mixes_answers_and_errors(probe_results):
    reachable, unreachable = probe_results["sampled"]
    assert reachable["stats"]["reports"] == probe_results["num_reports"]
    assert "error" in unreachable
    assert unreachable["target"] == "127.0.0.1:1"


def test_scrape_serves_prometheus_text(probe_results):
    status, headers, body = probe_results["loaded_scrape"]
    assert status == 200
    assert headers["content-type"].startswith("text/plain")
    assert "# TYPE repro_server_reports_total counter" in body
    assert scrape_value(body, "repro_server_reports_total") == (
        probe_results["num_reports"]
    )


def test_scrape_counters_are_monotonic(probe_results):
    # Before the first report the family exists but has no series yet
    # (a counter child materializes on its first increment), so an
    # absent sample reads as zero.
    before = scrape_value(
        probe_results["empty_scrape"][2], "repro_server_reports_total"
    ) or 0.0
    after = scrape_value(
        probe_results["loaded_scrape"][2], "repro_server_reports_total"
    )
    assert before == 0
    assert after == probe_results["num_reports"]
    assert after >= before


def test_health_and_unknown_paths(probe_results):
    assert probe_results["health"][0] == 200
    assert probe_results["health"][2] == "ok\n"
    assert probe_results["lost"][0] == 404
