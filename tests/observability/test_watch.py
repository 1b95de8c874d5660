"""Watch client units: rate tracking, half-widths, rendering."""

from __future__ import annotations

import pytest

from repro.observability.watch import (
    RateTracker,
    expected_error_half_width,
    render_watch,
)
from repro.theory.bounds import error_bound


def stats_for(protocol, *, reports=2000, epsilon=1.1, width=2, dimension=4):
    return {
        "reports": reports,
        "bytes": 4096,
        "frames": 8,
        "num_attributes": dimension,
        "spec": {
            "protocol": protocol,
            "epsilon": epsilon,
            "max_width": width,
        },
    }


# ----------------------------------------------------------------------
# RateTracker


def test_first_sample_has_no_rate():
    tracker = RateTracker()
    assert tracker.rates("a", 100, 1000, now=10.0) is None


def test_rates_from_consecutive_samples():
    tracker = RateTracker()
    tracker.rates("a", 100, 1_000_000, now=10.0)
    reports_rate, mb_rate = tracker.rates("a", 300, 3_000_000, now=12.0)
    assert reports_rate == pytest.approx(100.0)
    assert mb_rate == pytest.approx(1.0)


def test_targets_are_tracked_independently():
    tracker = RateTracker()
    tracker.rates("a", 100, 0, now=10.0)
    assert tracker.rates("b", 999, 0, now=11.0) is None
    assert tracker.rates("a", 200, 0, now=11.0) == pytest.approx((100.0, 0.0))


def test_zero_elapsed_yields_no_rate():
    tracker = RateTracker()
    tracker.rates("a", 100, 0, now=10.0)
    assert tracker.rates("a", 200, 0, now=10.0) is None


def test_cpu_per_report_between_samples():
    tracker = RateTracker()
    assert tracker.cpu_us_per_report("a", 1_000, 2.0) is None
    assert tracker.cpu_us_per_report("a", 5_000, 3.2) == pytest.approx(300.0)
    assert tracker.cpu_us_per_report("b", 9_000, 9.0) is None
    # No report in the interval: no per-report figure.
    assert tracker.cpu_us_per_report("a", 5_000, 3.5) is None
    assert tracker.cpu_us_per_report("a", 6_000, 3.6) == pytest.approx(100.0)


# ----------------------------------------------------------------------
# expected_error_half_width


def test_table2_protocol_matches_error_bound():
    stats = stats_for("InpRR")
    width = expected_error_half_width(stats)
    assert width == pytest.approx(error_bound("InpRR", 4, 2, 1.1, 2000))
    assert width > 0


def test_oracle_protocol_has_finite_half_width():
    width = expected_error_half_width(stats_for("InpOLH"))
    assert width is not None and width > 0


def test_half_width_shrinks_with_population():
    small = expected_error_half_width(stats_for("InpRR", reports=100))
    large = expected_error_half_width(stats_for("InpRR", reports=100_000))
    assert large < small


@pytest.mark.parametrize("protocol", ["HH", "InpEM", "NoSuchProtocol"])
def test_unbounded_protocols_render_na(protocol):
    assert expected_error_half_width(stats_for(protocol)) is None


def test_zero_population_renders_na():
    assert expected_error_half_width(stats_for("InpRR", reports=0)) is None


def test_missing_spec_renders_na():
    assert expected_error_half_width({"reports": 100}) is None


# ----------------------------------------------------------------------
# render_watch


def payload_for(target="127.0.0.1:7311", **stats_kwargs):
    return {
        "target": target,
        "collector_id": "c0",
        "stats": {
            **stats_for("InpRR", **stats_kwargs),
            "shard_reports": [1200, 800],
            "connections": {
                "active": 1,
                "completed": 9,
                "rejected": 0,
                "dropped": 0,
            },
        },
        "metrics": {"format": "repro-metrics/v1", "families": {}},
    }


def test_render_includes_shards_rates_and_half_width():
    tracker = RateTracker()
    tracker.rates("127.0.0.1:7311", 0, 0, now=0.0)
    frame = render_watch([payload_for()], tracker, now=2.0)
    assert "collector 127.0.0.1:7311" in frame
    assert "shards  : 00=1,200  01=800" in frame
    assert "reports/s" in frame
    assert "±error  :" in frame and "n/a" not in frame
    assert "fleet: 1/1 collector(s), 2,000 reports" in frame


def test_render_marks_unreachable_collectors():
    frame = render_watch(
        [payload_for(), {"target": "127.0.0.1:9", "error": "boom"}]
    )
    assert "UNREACHABLE: boom" in frame
    assert "fleet: 1/2 collector(s)" in frame


def test_render_without_tracker_omits_rates():
    frame = render_watch([payload_for()])
    assert "reports/s" not in frame


def test_render_shows_a_durable_collectors_commit_log():
    payload = payload_for()
    assert "log     :" not in render_watch([payload])
    payload["stats"]["commit_log"] = {
        "records": 1500,
        "bytes": 3_300_000,
        "compactions": 12,
    }
    frame = render_watch([payload])
    assert "log     : records=1,500  bytes=3,300,000  compactions=12" in frame


def test_render_counts_groups_apart_from_connections():
    payload = payload_for()
    assert "groups  :" not in render_watch([payload])
    payload["stats"]["groups"] = {"committed": 1234, "duplicate": 5}
    frame = render_watch([payload])
    assert "conns   : active=1  completed=9" in frame
    assert "groups  : committed=1,234  duplicate=5" in frame


def test_render_shows_the_collectors_cpu_per_report():
    tracker = RateTracker()
    payload = payload_for(reports=2_000)
    payload["stats"]["cpu"] = {"user_seconds": 1.5, "sys_seconds": 0.25}
    first = render_watch([payload], tracker, now=0.0)
    assert "  cpu     : user=1.50s  sys=0.25s\n" in first
    payload = payload_for(reports=6_000)
    payload["stats"]["cpu"] = {"user_seconds": 2.5, "sys_seconds": 0.45}
    second = render_watch([payload], tracker, now=2.0)
    # (1.2 s of CPU) / (4,000 reports) = 300 us per report.
    assert "  cpu     : user=2.50s  sys=0.45s  [300.000 µs/report]\n" in second
    assert "cpu     :" not in render_watch([payload_for()])
