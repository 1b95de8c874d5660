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


def load_parser_actions():
    parser = cli._build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    load_parser = subparsers.choices["load"]
    return {action.dest: action for action in load_parser._actions}


def test_connect_timeout_default_matches_table():
    actions = load_parser_actions()
    assert actions["connect_timeout"].default == (
        defaults.DEFAULT_CONNECT_TIMEOUT
    )


def test_retry_help_advertises_current_defaults():
    actions = load_parser_actions()
    assert str(defaults.DEFAULT_BASE_DELAY) in actions["retry_base_delay"].help
    assert str(defaults.DEFAULT_MAX_DELAY) in actions["retry_max_delay"].help


def test_retry_policy_from_partial_flags_fills_from_table():
    arguments = argparse.Namespace(
        max_retries=7,
        retry_base_delay=None,
        retry_max_delay=None,
        retry_deadline=None,
    )
    policy = cli._retry_policy_from_args(arguments)
    assert policy.max_retries == 7
    assert policy.base_delay == defaults.DEFAULT_BASE_DELAY
    assert policy.max_delay == defaults.DEFAULT_MAX_DELAY
    assert policy.growth == defaults.DEFAULT_GROWTH
    assert policy.jitter == defaults.DEFAULT_JITTER


def test_no_retry_flags_means_no_policy():
    arguments = argparse.Namespace(
        max_retries=None,
        retry_base_delay=None,
        retry_max_delay=None,
        retry_deadline=None,
    )
    assert cli._retry_policy_from_args(arguments) is None


def test_default_policies_round_trip_the_table():
    retry = defaults.default_retry_policy()
    assert retry.max_retries == defaults.DEFAULT_MAX_RETRIES
    assert retry.base_delay == defaults.DEFAULT_BASE_DELAY
    assert retry.max_delay == defaults.DEFAULT_MAX_DELAY
    timeouts = defaults.default_timeout_policy()
    assert timeouts.connect == defaults.DEFAULT_CONNECT_TIMEOUT
    assert timeouts.io == defaults.DEFAULT_IO_TIMEOUT
    assert timeouts.pull == defaults.DEFAULT_PULL_TIMEOUT
    breaker = defaults.default_breaker_policy()
    assert breaker.failure_threshold == defaults.BREAKER_FAILURE_THRESHOLD
    assert breaker.failure_rate == defaults.BREAKER_FAILURE_RATE
    assert breaker.window_seconds == defaults.BREAKER_WINDOW_SECONDS
    assert breaker.cooldown_seconds == defaults.BREAKER_COOLDOWN_SECONDS
    assert breaker.half_open_probes == defaults.BREAKER_HALF_OPEN_PROBES


def test_breaker_flag_uses_the_default_policy():
    config = defaults.default_resilience_config()
    assert config.breaker == defaults.default_breaker_policy()
    assert config.retry == defaults.default_retry_policy()
    assert config.timeouts == defaults.default_timeout_policy()


def test_loadgen_retry_policy_is_the_table_row():
    """Three linear retries 0.2, 0.4 and 0.6 s apart, without jitter."""
    policy = defaults.LOADGEN_RETRY_POLICY
    assert policy.max_retries == defaults.DEFAULT_MAX_RETRIES == 3
    assert [policy.delay(attempt) for attempt in (1, 2, 3)] == pytest.approx(
        [0.2, 0.4, 0.6]
    )
    assert (policy.growth, policy.jitter, policy.deadline) == (
        "linear", "none", None
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
    bundle = defaults.default_resilience_config()
    assert policy_of(resilience=bundle) == bundle.retry
