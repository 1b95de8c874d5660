"""RetryPolicy: the one linear retry schedule, and the two sites that run it.

A delivery retry and a fan-in pull retry sleep ``n * base_delay`` before
retry ``n``.  The call-site tests record the sleeps instead of taking
them, so the whole schedule is pinned without waiting it out.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import socket

import pytest

from repro.core.domain import Domain
from repro.core.exceptions import (
    CollectionServiceError,
    ProtocolConfigurationError,
)
from repro.resilience import RetryPolicy
from repro.server import LoadGenerator
from repro.server.loadgen import ClientResult
from repro.service import ProtocolSpec
from repro.topology import fan_in
from repro.topology.tree import MANIFEST_FORMAT_VERSION


class TestRetryPolicy:
    def test_linear_schedule(self):
        policy = RetryPolicy(max_retries=3, base_delay=0.1)
        assert [policy.delay(n) for n in (1, 2, 3)] == pytest.approx(
            [0.1, 0.2, 0.3]
        )

    def test_attempt_bound(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.should_retry(1)
        assert policy.should_retry(2)
        assert not policy.should_retry(3)

    def test_zero_retries_means_one_attempt(self):
        assert not RetryPolicy(max_retries=0).should_retry(1)

    def test_attempts_are_one_based(self):
        with pytest.raises(ProtocolConfigurationError, match="1-based"):
            RetryPolicy().delay(0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_retries": -1}, {"base_delay": -0.1}, {"base_delay": math.nan}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ProtocolConfigurationError):
            RetryPolicy(**kwargs)

    def test_zero_base_delay_is_valid(self):
        # A zero backoff (tests that retry without waiting) stays valid.
        assert RetryPolicy(base_delay=0.0).delay(1) == 0.0

    def test_the_schedule_has_two_knobs(self):
        names = [field.name for field in dataclasses.fields(RetryPolicy)]
        assert names == ["max_retries", "base_delay"]


@pytest.fixture
def recorded_sleeps(monkeypatch):
    """Record every ``asyncio.sleep`` and yield to the loop instead."""
    sleeps = []
    real_sleep = asyncio.sleep

    async def sleep(delay, *args, **kwargs):
        sleeps.append(delay)
        await real_sleep(0)

    monkeypatch.setattr(asyncio, "sleep", sleep)
    return sleeps


def closed_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


SPEC = ProtocolSpec(protocol="InpRR", epsilon=1.0, max_width=1)


def test_a_failing_group_sleeps_the_default_schedule(recorded_sleeps):
    """Without a policy, a group that keeps failing is tried four times,
    0.2, 0.4 and 0.6 s apart, then the last error is raised."""
    fleet = LoadGenerator(
        SPEC, Domain.binary(2), "127.0.0.1", 1, num_clients=1
    )
    attempts = []

    async def send_group(result, frames, address, token=None):
        attempts.append(address)
        raise CollectionServiceError(f"attempt {len(attempts)} failed")

    fleet._send_group = send_group
    result = ClientResult(client_id=0)
    with pytest.raises(CollectionServiceError, match="attempt 4 failed"):
        asyncio.run(fleet._deliver_group(result, 0, [b"frame"]))
    assert len(attempts) == 4
    assert recorded_sleeps == pytest.approx([0.2, 0.4, 0.6])
    assert result.retries == 3


def test_fan_in_pull_retries_run_the_same_linear_rule(
    tmp_path, recorded_sleeps
):
    """``fan_in`` retries a silent collector's pull twice, 0.2 then
    0.4 s apart, before reading its (here absent) durable state."""
    manifest = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "spec": SPEC.to_dict(),
        "attributes": ["a0", "a1"],
        "routing": "round-robin",
        "collectors": [
            {
                "collector_id": "c0",
                "host": "127.0.0.1",
                "port": closed_port(),
                "checkpoint_dir": str(tmp_path / "c0"),
            }
        ],
    }
    gathered = fan_in(manifest, partial=True)
    assert recorded_sleeps == pytest.approx([0.2, 0.4])
    assert gathered.unreachable == ["c0"]
    assert "c0" in gathered.lost
