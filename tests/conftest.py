"""Shared fixtures for the test suite."""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro import PrivacyBudget
from repro.core import backends as backends_module
from repro.core.domain import Domain
from repro.datasets import BinaryDataset, make_movielens_dataset, make_taxi_dataset


@pytest.fixture(autouse=True)
def _isolate_repro_logger():
    """Undo ``configure_logging`` side effects between tests.

    In-process CLI invocations (``cli.main([...])``) install the repro
    handler and turn off propagation on the ``repro`` logger; left in
    place, that would hide later tests' records from ``caplog``'s
    root-level handler.
    """
    logger = logging.getLogger("repro")
    saved_handlers = list(logger.handlers)
    saved_level = logger.level
    saved_propagate = logger.propagate
    yield
    logger.handlers[:] = saved_handlers
    logger.setLevel(saved_level)
    logger.propagate = saved_propagate


@pytest.fixture
def machine_backend(monkeypatch):
    """Install a kernel backend as this process's for one test.

    ``machine_backend(backend)`` makes :func:`resolve_backend` return
    ``backend`` until the test ends, which is how a test runs the library
    on a backend this host would not choose.
    """

    def install(backend):
        monkeypatch.setattr(backends_module, "_BACKEND", backend)
        return backend

    return install


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator; tests share one seed per test."""
    return np.random.default_rng(20180610)


@pytest.fixture
def budget() -> PrivacyBudget:
    """The paper's default privacy budget, eps = ln 3."""
    return PrivacyBudget(np.log(3.0))


@pytest.fixture
def small_domain() -> Domain:
    """A 4-attribute named domain."""
    return Domain(["a", "b", "c", "d"])


@pytest.fixture
def tiny_dataset(rng) -> BinaryDataset:
    """A small fixed-dimension dataset with planted correlation (a == b often)."""
    n = 4096
    a = (rng.random(n) < 0.6).astype(np.int8)
    b = np.where(rng.random(n) < 0.85, a, 1 - a).astype(np.int8)
    c = (rng.random(n) < 0.3).astype(np.int8)
    d = (rng.random(n) < 0.5).astype(np.int8)
    return BinaryDataset.from_records(
        np.stack([a, b, c, d], axis=1), attribute_names=["a", "b", "c", "d"]
    )


@pytest.fixture
def taxi_dataset(rng) -> BinaryDataset:
    """A moderate taxi-like dataset (8 attributes)."""
    return make_taxi_dataset(8192, rng=rng)


@pytest.fixture
def movielens_dataset(rng) -> BinaryDataset:
    """A moderate movielens-like dataset (8 genres)."""
    return make_movielens_dataset(8192, d=8, rng=rng)
