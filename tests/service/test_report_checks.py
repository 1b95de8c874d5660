"""In-memory report batches are checked against the spec like wire frames.

A batch handed to :meth:`AggregationSession.submit` (or
:meth:`~AggregationSession.submit_decoded`) never crossed the wire, so the
decoder's value checks never saw it.  The session applies the same
per-column bounds (and HH's per-level check) before the batch folds: a
value outside them raises :class:`AggregationError` naming the field and
its bound, and the session is left as it was.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.exceptions import AggregationError
from repro.core.privacy import PrivacyBudget
from repro.protocols.registry import make_protocol
from repro.protocols.wire import report_schema_for
from repro.service import AggregationSession

from .util import ALL_PROTOCOLS, LN3, build, small_dataset

D = 4


def _session_state(session):
    state = session._accumulator.state_dict()
    return session.num_reports, session.metadata, state


def _assert_same_state(before, after) -> None:
    assert before[:2] == after[:2]
    assert before[2].keys() == after[2].keys()
    for key, value in before[2].items():
        np.testing.assert_array_equal(after[2][key], value)


def _out_of_spec(protocol, reports, value_of):
    """``reports`` with the first user's value of the first bounded
    integer column replaced by ``value_of(bound)``; returns the batch,
    the field and the bound."""
    bounds = protocol.report_bounds(D)
    for field in report_schema_for(type(reports)).packed_fields:
        if field.sign or field.name not in bounds:
            continue
        values = getattr(reports, field.name).copy()
        bound = bounds[field.name][0]
        if values.ndim == 1:
            values[0] = value_of(bound)
        else:
            values[0, 0] = value_of(bound)
        return dataclasses.replace(reports, **{field.name: values}), field.name, bound
    raise AssertionError(f"{protocol.name} has no bounded integer column")


@pytest.mark.parametrize("name", [name for name in ALL_PROTOCOLS if name != "InpRR"])
@pytest.mark.parametrize("value_of", [lambda bound: bound, lambda bound: -1])
def test_out_of_spec_value_refused_and_session_unchanged(name, value_of):
    protocol = build(name)
    dataset = small_dataset(n=12, d=D)
    reports = protocol.encode_batch(dataset, rng=np.random.default_rng(1))
    session = AggregationSession(protocol.spec(), dataset.domain).submit(reports)
    before = _session_state(session)
    bad, field, bound = _out_of_spec(protocol, reports, value_of)
    pattern = rf"{field}.*outside the bound \[0, {bound}\)"
    with pytest.raises(AggregationError, match=pattern):
        session.submit(bad)
    with pytest.raises(AggregationError, match=pattern):
        session.submit_decoded([reports, bad])
    _assert_same_state(before, _session_state(session))
    # The same batch folds once it is back in range.
    session.submit(reports)
    assert session.num_reports == 2 * reports.num_users


@pytest.mark.parametrize("name", ALL_PROTOCOLS)
def test_an_empty_batch_passes_the_checks(name):
    protocol = build(name)
    dataset = small_dataset(n=12, d=D)
    reports = protocol.encode_batch(np.zeros((0, D), np.int8))
    protocol.check_reports(reports, dataset.domain)


def test_inp_rr_sums_of_the_wrong_shape_refused():
    """InpRR's batch is per-frame sums, with no per-user column to bound;
    sums of the wrong shape are refused before they fold."""
    protocol = build("InpRR")
    dataset = small_dataset(n=12, d=D)
    reports = protocol.encode_batch(dataset, rng=np.random.default_rng(1))
    session = AggregationSession(protocol.spec(), dataset.domain).submit(reports)
    before = _session_state(session)
    bad = dataclasses.replace(reports, report_sums=reports.report_sums[:-1])
    with pytest.raises(AggregationError, match="shape"):
        session.submit(bad)
    _assert_same_state(before, _session_state(session))


@pytest.mark.parametrize("name", ["InpHT", "MargHT", "InpHTCMS"])
def test_sign_other_than_plus_or_minus_one_refused(name):
    protocol = build(name)
    dataset = small_dataset(n=12, d=D)
    reports = protocol.encode_batch(dataset, rng=np.random.default_rng(1))
    (field,) = [f for f in report_schema_for(type(reports)).packed_fields if f.sign]
    values = getattr(reports, field.name).copy()
    values[0] = 0.5
    session = AggregationSession(protocol.spec(), dataset.domain)
    with pytest.raises(AggregationError, match=rf"{field.name}.*-1.0 or \+1.0"):
        session.submit(dataclasses.replace(reports, **{field.name: values}))
    assert session.num_reports == 0


def test_hh_inpht_choice_checked_against_its_own_level():
    protocol = make_protocol("HH", PrivacyBudget(LN3), 2, oracle="InpHT")
    dataset = small_dataset(n=12, d=D)
    plan = protocol.level_plan(D)
    reports = protocol.encode_batch(dataset, rng=np.random.default_rng(1))
    levels, int_data = reports.levels.copy(), reports.int_data.copy()
    levels[0], int_data[0, 0] = 0, (1 << plan[0]) - 1
    session = AggregationSession(protocol.spec(), dataset.domain)
    with pytest.raises(AggregationError, match="at level 0, outside"):
        session.submit(dataclasses.replace(reports, levels=levels, int_data=int_data))
    assert session.num_reports == 0


def test_run_streaming_checks_what_it_encodes():
    """The shard runner checks each encoded batch; a protocol whose
    encoder leaves the spec is refused, not folded."""
    protocol = build("InpOLH")
    dataset = small_dataset(n=12, d=D)
    g = protocol.oracle(D).num_buckets
    encode = protocol.encode_batch

    def drifting_encode(records, rng=None):
        reports = encode(records, rng=rng)
        return dataclasses.replace(reports, noisy_buckets=reports.noisy_buckets + g)

    protocol.encode_batch = drifting_encode
    with pytest.raises(AggregationError, match="noisy_buckets"):
        protocol.run_streaming(dataset, rng=np.random.default_rng(1))
