"""RetryPolicy / TimeoutPolicy / CircuitBreaker unit behavior.

The breaker runs against an injected fake clock, so every state
transition — closed, open, half-open, probe success/failure — is pinned
without a single real sleep.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import CircuitOpenError, ProtocolConfigurationError
from repro.resilience import (
    CircuitBreaker,
    CircuitBreakerPolicy,
    ResilienceConfig,
    RetryPolicy,
    TimeoutPolicy,
    default_resilience_config,
)


class FakeClock:
    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestRetryPolicy:
    def test_exponential_schedule_without_jitter(self):
        policy = RetryPolicy(
            max_retries=4, base_delay=0.2, max_delay=0.5,
            growth="exponential", jitter="none",
        )
        assert list(policy.delays()) == [0.2, 0.4, 0.5, 0.5]

    def test_linear_schedule_matches_legacy_loadgen(self):
        policy = RetryPolicy(
            max_retries=3, base_delay=0.1, max_delay=0.3,
            growth="linear", jitter="none",
        )
        assert list(policy.delays()) == pytest.approx([0.1, 0.2, 0.3])

    def test_full_jitter_stays_within_the_computed_delay(self):
        policy = RetryPolicy(
            max_retries=10, base_delay=0.2, max_delay=1.0,
            growth="exponential", jitter="full",
        )
        rng = np.random.default_rng(7)
        for attempt in range(1, 11):
            cap = min(0.2 * 2 ** (attempt - 1), 1.0)
            drawn = policy.delay(attempt, rng)
            assert 0.0 <= drawn <= cap

    def test_attempt_bound(self):
        policy = RetryPolicy(max_retries=2, jitter="none")
        started = 100.0
        assert policy.should_retry(1, started, now=started)
        assert policy.should_retry(2, started, now=started)
        assert not policy.should_retry(3, started, now=started)

    def test_deadline_overrides_attempts_left(self):
        policy = RetryPolicy(max_retries=100, deadline=5.0, jitter="none")
        started = 100.0
        assert policy.should_retry(1, started, now=104.9)
        assert not policy.should_retry(1, started, now=105.0)

    def test_dict_round_trip(self):
        policy = RetryPolicy(
            max_retries=7, base_delay=0.05, max_delay=2.0,
            growth="linear", jitter="none", deadline=30.0,
        )
        assert RetryPolicy.from_dict(policy.to_dict()) == policy

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ProtocolConfigurationError, match="unknown"):
            RetryPolicy.from_dict({"max_retries": 1, "backoff": 2})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"base_delay": -0.1},
            {"base_delay": 2.0, "max_delay": 1.0},
            {"growth": "quadratic"},
            {"jitter": "half"},
            {"deadline": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ProtocolConfigurationError):
            RetryPolicy(**kwargs)

    def test_zero_base_delay_is_valid(self):
        # A zero backoff (tests that retry without waiting) stays valid.
        policy = RetryPolicy(base_delay=0.0, max_delay=0.0, jitter="none")
        assert policy.delay(1) == 0.0


class TestTimeoutPolicy:
    def test_round_trip(self):
        policy = TimeoutPolicy(connect=1.0, io=2.0, pull=3.0)
        assert TimeoutPolicy.from_dict(policy.to_dict()) == policy

    @pytest.mark.parametrize("name", ["connect", "io", "pull"])
    def test_rejects_non_positive(self, name):
        with pytest.raises(ProtocolConfigurationError, match=name):
            TimeoutPolicy(**{name: 0.0})


class TestCircuitBreaker:
    def make(self, clock, **overrides) -> CircuitBreaker:
        policy = CircuitBreakerPolicy(
            failure_threshold=3,
            failure_rate=0.5,
            window_seconds=10.0,
            cooldown_seconds=2.0,
            half_open_probes=1,
            **overrides,
        )
        return policy.build("c0", clock=clock)

    def test_stays_closed_below_the_failure_threshold(self):
        clock = FakeClock()
        breaker = self.make(clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_trips_open_at_threshold_and_rate(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 1
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.check()
        assert excinfo.value.retry_after == pytest.approx(2.0)

    def test_successes_keep_the_failure_rate_below_trip(self):
        clock = FakeClock()
        breaker = self.make(clock)
        # 3 failures, 4 successes: rate 3/7 < 0.5, must stay closed.
        for _ in range(4):
            breaker.record_success()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_old_failures_expire_from_the_window(self):
        clock = FakeClock()
        breaker = self.make(clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(11.0)  # past window_seconds
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_admits_a_bounded_probe_count(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(2.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()  # the one probe
        assert not breaker.allow()  # a second concurrent call is refused

    def test_probe_success_closes_and_clears_the_bad_spell(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        # The window was cleared: one fresh failure must not re-trip.
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_probe_failure_reopens_with_a_fresh_cooldown(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 2
        assert breaker.time_until_retry() == pytest.approx(2.0)

    def test_policy_validation(self):
        with pytest.raises(ProtocolConfigurationError):
            CircuitBreakerPolicy(failure_threshold=0)
        with pytest.raises(ProtocolConfigurationError):
            CircuitBreakerPolicy(failure_rate=1.5)
        with pytest.raises(ProtocolConfigurationError):
            CircuitBreakerPolicy(cooldown_seconds=0.0)


class TestResilienceConfig:
    def test_round_trip_including_disabled_breaker(self):
        config = default_resilience_config().with_overrides(breaker=None)
        restored = ResilienceConfig.from_dict(config.to_dict())
        assert restored == config
        assert restored.breaker is None

    def test_round_trip_full(self):
        config = default_resilience_config()
        assert ResilienceConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ProtocolConfigurationError, match="unknown"):
            ResilienceConfig.from_dict({"retries": {}})
