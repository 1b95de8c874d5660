"""HH over the OLH oracle folds every prefix level in one kernel call.

Whatever the backend — the native one-call level scan, or the numpy
backend's per-level default, which is also the fallback when the native
scan did not build — an HH accumulator's state must be bit-for-bit the state
that folding each level's reports into its own ``InpOLH`` accumulator
gives on the numpy backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import backends as backends_module
from repro.core.backends import NativeBackend, NumpyBackend
from repro.core.domain import Domain
from repro.core.exceptions import AggregationError
from repro.core.privacy import PrivacyBudget
from repro.heavyhitters import HeavyHitters
from repro.heavyhitters.protocol import HeavyHitterReports
from repro.protocols.inp_olh import InpOLHReports

D = 8
BACKENDS = {"numpy": NumpyBackend()}
if isinstance(backends_module._BACKEND, NativeBackend):
    BACKENDS["native"] = backends_module._BACKEND


def _protocol(fanout: int = 3) -> HeavyHitters:
    return HeavyHitters(PrivacyBudget(3.0), D, fanout=fanout)


def _encoded(protocol, users=600, seed=3):
    rng = np.random.default_rng(seed)
    records = (rng.random((users, D)) < 0.3).astype(np.int8)
    return protocol.encode_batch(records, rng=rng)


def _crafted(levels, seeds=None, buckets=None, seed=4):
    """A hand-built batch (OLH packs no float columns)."""
    levels = np.asarray(levels, dtype=np.int64)
    rng = np.random.default_rng(seed)
    users = levels.shape[0]
    if seeds is None:
        seeds = rng.integers(1, 2**62, size=users, dtype=np.int64)
    if buckets is None:
        buckets = rng.integers(0, 21, size=users, dtype=np.int64)
    return HeavyHitterReports(
        levels=levels,
        int_data=np.column_stack((seeds, buckets)).astype(np.int64),
        float_data=np.zeros((users, 0), dtype=np.float64),
    )


def _hh_state(protocol, batches):
    """The batches folded by an HH accumulator on the installed backend."""
    accumulator = protocol.accumulator(Domain.binary(D))
    for batch in batches:
        accumulator.update(batch)
    return accumulator.state_dict()


def _per_level_state(protocol, batches, machine_backend):
    """Each level's users folded into that level's own ``InpOLH``
    accumulator on the numpy backend (installed here), keyed as HH keys
    its state."""
    machine_backend(NumpyBackend())
    state = {}
    for index, bits in enumerate(protocol.level_plan(D)):
        inner = protocol.level_protocol(bits).accumulator(Domain.binary(bits))
        for batch in batches:
            members = batch.levels == index
            if members.any():
                inner.update(
                    InpOLHReports(
                        seeds=batch.int_data[members, 0],
                        noisy_buckets=batch.int_data[members, 1],
                    )
                )
        for key, value in inner.state_dict().items():
            state[f"level{index:02d}__{key}"] = value
    state["num_reports"] = sum(batch.num_users for batch in batches)
    return state


def _assert_same_state(observed, expected):
    assert observed.keys() == expected.keys()
    for key, value in expected.items():
        np.testing.assert_array_equal(observed[key], value, err_msg=key)
        assert np.asarray(observed[key]).dtype == np.asarray(value).dtype, key


CASES = {
    "zero users": lambda: [_crafted([])],
    "all users on one level": lambda: [_crafted([1] * 50)],
    "empty middle level": lambda: [_crafted([0, 2] * 40)],
    "hostile buckets": lambda: [
        _crafted(
            np.arange(64) % 3,
            buckets=np.array([-1, 21, 2**62, -(2**63), 2**63 - 1, 0, 5, 20] * 8),
        )
    ],
    "seeds at both ends of int64": lambda: [
        _crafted(
            np.arange(48) % 3,
            seeds=np.array([-(2**63), 2**63 - 1, -1, 0] * 12, dtype=np.int64),
        )
    ],
    "several batches": lambda: [_crafted([0, 1, 2] * 20, seed=s) for s in (5, 6)],
}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_crafted_batches_fold_as_each_level_alone(
    backend, case, machine_backend
):
    batches = CASES[case]()
    protocol = _protocol()
    expected = _per_level_state(protocol, batches, machine_backend)
    machine_backend(BACKENDS[backend])
    _assert_same_state(_hh_state(protocol, batches), expected)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("fanout", [4, 3, 2])  # 2, 3 and 4 levels over d = 8
def test_encoded_batches_fold_as_each_level_alone(
    backend, fanout, machine_backend
):
    protocol = _protocol(fanout)
    assert len(protocol.level_plan(D)) == 6 - fanout
    batches = [_encoded(protocol, seed=seed) for seed in (1, 2)]
    expected = _per_level_state(protocol, batches, machine_backend)
    machine_backend(BACKENDS[backend])
    _assert_same_state(_hh_state(protocol, batches), expected)


def test_the_fallback_without_a_native_build_folds_the_same(
    monkeypatch, machine_backend
):
    """The backend a machine without a C compiler chooses takes the numpy
    backend's per-level default and lands on the same state as this
    machine's backend."""
    protocol = _protocol(2)
    batches = [_encoded(protocol, seed=seed) for seed in (7, 8)]
    machines = _hh_state(protocol, batches)

    def no_compiler():
        raise OSError("no C compiler (cc) on PATH")

    monkeypatch.setattr(backends_module, "_compiler", no_compiler)
    fallback, warning = backends_module._machine_backend()
    assert "no C compiler" in warning
    assert machine_backend(fallback).name == "numpy"
    _assert_same_state(_hh_state(protocol, batches), machines)


@pytest.mark.parametrize(
    "levels, int_rows, float_rows",
    [(5, 3, 5), (3, 5, 3), (3, 3, 0)],
    ids=["more levels than int rows", "more int rows than levels", "no float rows"],
)
def test_mismatched_columns_are_refused(levels, int_rows, float_rows):
    reports = HeavyHitterReports(
        levels=np.zeros(levels, dtype=np.int64),
        int_data=np.ones((int_rows, 2), dtype=np.int64),
        float_data=np.zeros((float_rows, 0), dtype=np.float64),
    )
    accumulator = _protocol().accumulator(Domain.binary(D))
    with pytest.raises(AggregationError, match="one level, one int row"):
        accumulator.update(reports)
    assert accumulator.num_reports == 0
