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
DEFAULT_CONNECT_TIMEOUT     10.0 s     First contact tolerates a slow
                                       fleet spawn (CI machines).
DEFAULT_IO_TIMEOUT          30.0 s     Per-read silence bound during an
                                       established exchange.
WATCH_INTERVAL_SECONDS      0.05 s     Supervisor health-watch cadence,
                                       also the CLI fleet loop's poll of
                                       the committed-report counter (it
                                       bounds shutdown latency after the
                                       report target is reached).
CONNECT_POLL_SECONDS        0.05 s     Client reconnect poll while a
                                       target's socket is not accepting
                                       (was inline in ``_connect``).
LOADGEN_RETRY_POLICY        3 x 0.2 s  What a ``LoadGenerator`` given no
                                       retry policy uses: three retries
                                       0.2, 0.4 and 0.6 s apart, so a
                                       seeded fault run replays the same
                                       schedule.
==========================  =========  ==================================
"""

from __future__ import annotations

from .policies import RetryPolicy

DEFAULT_MAX_RETRIES = 3
DEFAULT_BASE_DELAY = 0.2

DEFAULT_CONNECT_TIMEOUT = 10.0
DEFAULT_IO_TIMEOUT = 30.0

WATCH_INTERVAL_SECONDS = 0.05
CONNECT_POLL_SECONDS = 0.05

LOADGEN_RETRY_POLICY = RetryPolicy(
    max_retries=DEFAULT_MAX_RETRIES, base_delay=DEFAULT_BASE_DELAY
)
