"""Unit tests for the sweep harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import ProtocolConfigurationError
from repro.experiments.config import SweepConfig
from repro.experiments.harness import make_dataset, run_sweep


class TestMakeDataset:
    @pytest.mark.parametrize("name", ["taxi", "movielens", "skewed", "uniform"])
    def test_known_datasets(self, name, rng):
        dataset = make_dataset(name, 500, 6, rng)
        assert dataset.size == 500
        assert dataset.dimension == 6

    def test_unknown_dataset(self, rng):
        with pytest.raises(ProtocolConfigurationError):
            make_dataset("census", 100, 4, rng)


class TestRunSweep:
    @pytest.fixture(scope="class")
    def result(self):
        config = SweepConfig(
            protocols=("InpHT", "InpPS"),
            dataset="uniform",
            population_sizes=(1024, 4096),
            dimensions=(4,),
            widths=(1, 2),
            epsilons=(1.0,),
            repetitions=2,
            seed=7,
        )
        return run_sweep(config)

    def test_point_count(self, result):
        # 2 protocols x 2 populations x 1 dimension x 2 widths x 1 epsilon.
        assert len(result.points) == 8

    def test_points_have_all_repetitions(self, result):
        assert all(len(point.errors) == 2 for point in result.points)
        for point in result.points:
            assert point.mean_error == pytest.approx(np.mean(point.errors))
            assert point.std_error == pytest.approx(np.std(point.errors))

    def test_filter_and_series(self, result):
        filtered = result.filter(protocol="InpHT", width=2)
        assert len(filtered) == 2
        series = result.series("InpHT", "population", width=2)
        assert [x for x, *_ in series] == [1024.0, 4096.0]

    def test_best_protocol(self, result):
        best = result.best_protocol(population=4096, width=2)
        assert best in {"InpHT", "InpPS"}

    def test_best_protocol_rejects_empty_selection(self, result):
        with pytest.raises(ProtocolConfigurationError):
            result.best_protocol(population=999)

    def test_rows_serialisable(self, result):
        rows = result.as_rows()
        assert len(rows) == len(result.points)
        assert {"protocol", "N", "d", "k", "epsilon", "mean_tv", "std_tv"} <= set(
            rows[0]
        )

    def test_reproducible_with_same_seed(self):
        config = SweepConfig(
            protocols=("InpHT",),
            dataset="uniform",
            population_sizes=(2048,),
            dimensions=(4,),
            widths=(2,),
            epsilons=(1.0,),
            repetitions=2,
            seed=99,
        )
        first = run_sweep(config)
        second = run_sweep(config)
        assert [p.mean_error for p in first.points] == [
            p.mean_error for p in second.points
        ]

    @pytest.mark.parametrize("batch_size, shards", [(256, 2), (None, 1)])
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_executor_backend_is_invisible_in_sweep_errors(
        self, executor, batch_size, shards
    ):
        """A sweep's errors are identical whichever backend runs the shards.

        The unbatched case matters: there the caller's repetition generator
        itself encodes each protocol's single batch, so backend-identical
        errors require the process backend to fast-forward it correctly.
        """
        import dataclasses

        base = SweepConfig(
            protocols=("InpHT", "MargPS"),
            dataset="uniform",
            population_sizes=(1024,),
            dimensions=(4,),
            widths=(2,),
            epsilons=(1.0,),
            repetitions=2,
            seed=13,
            batch_size=batch_size,
            shards=shards,
        )
        workers = 2 if executor != "serial" and shards > 1 else 1
        parallel = dataclasses.replace(base, executor=executor, workers=workers)
        assert [p.errors for p in run_sweep(base).points] == [
            p.errors for p in run_sweep(parallel).points
        ]

    def test_width_larger_than_dimension_skipped(self):
        config = SweepConfig(
            protocols=("InpHT",),
            dataset="uniform",
            population_sizes=(512,),
            dimensions=(2,),
            widths=(2, 3),
            epsilons=(1.0,),
            repetitions=1,
        )
        result = run_sweep(config)
        assert all(point.width <= 2 for point in result.points)
