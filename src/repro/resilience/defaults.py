"""The one table of resilience defaults.

Every failure-handling constant that used to live inline in
``loadgen.py``, ``supervisor.py``, or ``pull.py`` now lives here, with
its rationale.  Change a value in this table and every consumer —
:class:`~repro.server.LoadGenerator`, the topology supervisor, the
fan-in ``PULL`` client, and the CLI flags — follows.

==========================  =========  ==================================
Constant                    Value      Why
==========================  =========  ==================================
DEFAULT_MAX_RETRIES         3          One first attempt plus three
                                       retries rides out a collector
                                       restart (~2s) without masking a
                                       genuinely dead target for long.
DEFAULT_BASE_DELAY          0.2 s      First backoff roughly one
                                       event-loop scheduling quantum
                                       above a localhost reconnect.
DEFAULT_MAX_DELAY           5.0 s      Caps exponential growth so a
                                       deadline-free loop still probes a
                                       recovering target every few
                                       seconds.
DEFAULT_GROWTH              exponential  Doubling spreads load fastest
                                       when many clients hit one dead
                                       collector.
DEFAULT_JITTER              full       Full jitter (uniform on
                                       ``[0, delay]``) is the classic
                                       thundering-herd fix.
DEFAULT_DEADLINE            None       Retry loops are attempt-bounded
                                       by default; deployments opt into
                                       wall-clock bounds.
DEFAULT_CONNECT_TIMEOUT     10.0 s     First contact tolerates a slow
                                       fleet spawn (CI machines).
DEFAULT_IO_TIMEOUT          30.0 s     Per-read silence bound during an
                                       established exchange.
DEFAULT_PULL_TIMEOUT        10.0 s     One control-plane PULL round
                                       trip, state payload included.
BREAKER_FAILURE_THRESHOLD   5          Minimum failures before the rate
                                       is consulted; a single blip on a
                                       quiet target must not trip.
BREAKER_FAILURE_RATE        0.5        Half the recent calls failing
                                       means the target is down, not
                                       unlucky.
BREAKER_WINDOW_SECONDS      30.0 s     Rolling window the rate is
                                       measured over.
BREAKER_COOLDOWN_SECONDS    1.0 s      Open hold-off before the
                                       half-open probe; matches the
                                       supervisor restart latency.
BREAKER_HALF_OPEN_PROBES    1          One probe decides recovery.
WATCH_INTERVAL_SECONDS      0.05 s     Supervisor health-watch cadence,
                                       also the CLI fleet loop's poll of
                                       the committed-report counter (it
                                       bounds shutdown latency after the
                                       report target is reached).
CONNECT_POLL_SECONDS        0.05 s     Client reconnect poll while a
                                       target's socket is not accepting
                                       (was inline in ``_connect``).
LOADGEN_RETRY_POLICY        3 x 0.2 s  What a ``LoadGenerator`` given no
                            linear     retry policy uses: three retries
                                       0.2, 0.4 and 0.6 s apart, no
                                       jitter, so a seeded fault run
                                       replays the same schedule.
==========================  =========  ==================================
"""

from __future__ import annotations

from .policies import CircuitBreakerPolicy, ResilienceConfig, RetryPolicy, TimeoutPolicy

DEFAULT_MAX_RETRIES = 3
DEFAULT_BASE_DELAY = 0.2
DEFAULT_MAX_DELAY = 5.0
DEFAULT_GROWTH = "exponential"
DEFAULT_JITTER = "full"
DEFAULT_DEADLINE = None

DEFAULT_CONNECT_TIMEOUT = 10.0
DEFAULT_IO_TIMEOUT = 30.0
DEFAULT_PULL_TIMEOUT = 10.0

BREAKER_FAILURE_THRESHOLD = 5
BREAKER_FAILURE_RATE = 0.5
BREAKER_WINDOW_SECONDS = 30.0
BREAKER_COOLDOWN_SECONDS = 1.0
BREAKER_HALF_OPEN_PROBES = 1

WATCH_INTERVAL_SECONDS = 0.05
CONNECT_POLL_SECONDS = 0.05

LOADGEN_RETRY_POLICY = RetryPolicy(
    max_retries=DEFAULT_MAX_RETRIES,
    base_delay=DEFAULT_BASE_DELAY,
    max_delay=DEFAULT_MAX_RETRIES * DEFAULT_BASE_DELAY,
    growth="linear",
    jitter="none",
)


def default_retry_policy() -> RetryPolicy:
    return RetryPolicy(
        max_retries=DEFAULT_MAX_RETRIES,
        base_delay=DEFAULT_BASE_DELAY,
        max_delay=DEFAULT_MAX_DELAY,
        growth=DEFAULT_GROWTH,
        jitter=DEFAULT_JITTER,
        deadline=DEFAULT_DEADLINE,
    )


def default_timeout_policy() -> TimeoutPolicy:
    return TimeoutPolicy(
        connect=DEFAULT_CONNECT_TIMEOUT,
        io=DEFAULT_IO_TIMEOUT,
        pull=DEFAULT_PULL_TIMEOUT,
    )


def default_breaker_policy() -> CircuitBreakerPolicy:
    return CircuitBreakerPolicy(
        failure_threshold=BREAKER_FAILURE_THRESHOLD,
        failure_rate=BREAKER_FAILURE_RATE,
        window_seconds=BREAKER_WINDOW_SECONDS,
        cooldown_seconds=BREAKER_COOLDOWN_SECONDS,
        half_open_probes=BREAKER_HALF_OPEN_PROBES,
    )


def default_resilience_config() -> ResilienceConfig:
    return ResilienceConfig(
        retry=default_retry_policy(),
        timeouts=default_timeout_policy(),
        breaker=default_breaker_policy(),
    )
