"""Guard against drift between ``resilience/defaults.py`` and the CLI.

The defaults table is the single source of truth for every
failure-handling constant; the CLI flags advertise and apply those
defaults.  Each assertion here pins one advertised value to the table,
so editing the table without the flag text (or vice versa) fails fast
in CI instead of lying in ``--help`` output.
"""

from __future__ import annotations

import argparse

import pytest

from repro import cli
from repro.resilience import defaults


def parser_actions(*path):
    parser = cli._build_parser()
    for name in path:
        subparsers = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        parser = subparsers.choices[name]
    return {action.dest: action for action in parser._actions}


def test_connect_timeout_default_matches_table():
    actions = parser_actions("load")
    assert actions["connect_timeout"].default == (
        defaults.DEFAULT_CONNECT_TIMEOUT
    )


def test_loadgen_retry_policy_is_the_table_row():
    """Three linear retries 0.2, 0.4 and 0.6 s apart, without jitter."""
    policy = defaults.LOADGEN_RETRY_POLICY
    assert policy.max_retries == defaults.DEFAULT_MAX_RETRIES == 3
    assert [policy.delay(attempt) for attempt in (1, 2, 3)] == pytest.approx(
        [0.2, 0.4, 0.6]
    )


def test_loadgen_without_a_policy_uses_the_table_row():
    from repro.core.domain import Domain
    from repro.server import LoadGenerator
    from repro.service import ProtocolSpec

    spec = ProtocolSpec(protocol="InpRR", epsilon=1.0, max_width=1)

    def policy_of(**kwargs):
        fleet = LoadGenerator(
            spec, Domain.binary(2), "127.0.0.1", 1, num_clients=1, **kwargs
        )
        return fleet._retry_policy

    assert policy_of() is defaults.LOADGEN_RETRY_POLICY


def test_loadgen_connect_timeout_defaults_to_the_table():
    from repro.core.domain import Domain
    from repro.server import LoadGenerator
    from repro.service import ProtocolSpec

    spec = ProtocolSpec(protocol="InpRR", epsilon=1.0, max_width=1)
    fleet = LoadGenerator(spec, Domain.binary(2), "127.0.0.1", 1)
    assert fleet._connect_timeout == defaults.DEFAULT_CONNECT_TIMEOUT
