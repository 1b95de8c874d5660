"""Smoke and shape tests for the per-figure experiment modules.

Each module is run with a configuration much smaller than its quick preset so
the whole file stays fast; the assertions check structure (and the weakest
shape properties), not the paper-scale numbers — those live in benchmarks and
EXPERIMENTS.md.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    ablations,
    categorical,
    fig3_taxi_heatmap,
    fig4_vary_n,
    fig5_vary_k,
    fig6_vary_d_em,
    fig7_chi2,
    fig8_chow_liu,
    fig9_vary_eps,
    fig10_freq_oracles,
    table2_bounds,
    table3_em_failures,
)
from repro.experiments.config import SweepConfig
from repro.protocols.registry import available_protocols


def tiny_sweep(module, **overrides) -> SweepConfig:
    base = module.default_config(quick=True)
    defaults = dict(
        protocols=base.protocols,
        dataset=base.dataset,
        population_sizes=(2048,),
        dimensions=(4,),
        widths=(2,),
        epsilons=(1.0,),
        repetitions=1,
        protocol_options=base.protocol_options,
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


class TestSweepFigures:
    def test_fig4_runs_and_renders(self):
        result = fig4_vary_n.run(tiny_sweep(fig4_vary_n, population_sizes=(1024, 2048)))
        assert len(result.points) == 6 * 2
        text = fig4_vary_n.render(result)
        assert "Figure 4" in text and "InpHT" in text

    def test_fig5_runs_and_renders(self):
        result = fig5_vary_k.run(tiny_sweep(fig5_vary_k, widths=(1, 2)))
        text = fig5_vary_k.render(result)
        assert "Figure 5" in text

    def test_fig9_runs_and_renders(self):
        result = fig9_vary_eps.run(tiny_sweep(fig9_vary_eps, epsilons=(0.5, 1.0)))
        text = fig9_vary_eps.render(result)
        assert "Figure 9" in text

    def test_fig6_runs_and_renders(self):
        result = fig6_vary_d_em.run(
            tiny_sweep(fig6_vary_d_em, dimensions=(6,), epsilons=(1.0,))
        )
        assert {point.protocol for point in result.points} == set(fig6_vary_d_em.PROTOCOLS)
        assert "Figure 6" in fig6_vary_d_em.render(result)

    def test_fig10_runs_and_renders(self):
        result = fig10_freq_oracles.run(tiny_sweep(fig10_freq_oracles, dimensions=(4,)))
        assert "Figure 10" in fig10_freq_oracles.render(result)


class TestDescriptiveAndApplicationFigures:
    def test_fig3_heatmap(self):
        result = fig3_taxi_heatmap.run(fig3_taxi_heatmap.HeatmapConfig(population=4096))
        assert result.correlations.shape == (8, 8)
        assert result.correlation("Night_pick", "Night_drop") > 0.3
        assert ("Night_pick", "Night_drop") in result.strongly_dependent_pairs()
        assert "Figure 3" in fig3_taxi_heatmap.render(result)

    def test_fig7_chi2(self):
        result = fig7_chi2.run(fig7_chi2.Chi2Config(population=4096, protocols=("InpHT",)))
        comparisons = result.comparisons["InpHT"]
        assert len(comparisons) == 6
        # The three dependent pairs must be detected by the private test.
        assert all(entry.private.dependent for entry in comparisons[:3])
        assert 0 <= result.agreement_rate("InpHT") <= 1
        assert "Figure 7" in fig7_chi2.render(result)

    def test_fig8_chow_liu(self):
        config = fig8_chow_liu.ChowLiuConfig(
            population=4096, dimension=6, epsilons=(1.0,), repetitions=1
        )
        result = fig8_chow_liu.run(config)
        assert result.exact_total_mi > 0
        assert ("InpHT", 1.0) in result.private_total_mi
        assert 0 <= result.relative_quality("InpHT", 1.0) <= 1.5
        assert "Figure 8" in fig8_chow_liu.render(result)


class TestTables:
    def test_table2(self):
        result = table2_bounds.run(table2_bounds.Table2Config(population=2048))
        assert len(result.rows) == 6
        # The communication column is measured on the wire: every per-user
        # protocol within a byte of Table 2, InpRR's per-frame sums far
        # below its 2^d bits.
        for row in result.rows:
            if row["method"] == "InpRR":
                assert row["comm_bits_protocol"] < row["comm_bits_analytic"]
            else:
                assert row["comm_bits_protocol"] <= row["comm_bits_analytic"] + 8
        with pytest.raises(KeyError):
            result.row("Nope")
        assert "Table 2" in table2_bounds.render(result)

    def test_wire_rows_cover_every_protocol(self):
        config = table2_bounds.Table2Config(population=1000)
        rows = {row["method"]: row for row in table2_bounds.wire_rows(config)}
        assert sorted(rows) == available_protocols()
        assert rows["InpOLH"]["wire_bits"] <= 64 + 8
        assert rows["InpHT"]["wire_bits"] <= rows["InpHT"]["table2_bits"] + 8
        assert rows["HH"]["table2_bits"] is None
        markdown = table2_bounds.wire_markdown(config)
        assert "| InpOLH |" in markdown and "| HH | " in markdown

    def test_table3(self):
        config = table3_em_failures.Table3Config(
            settings=(table3_em_failures.EMFailureSetting(1024, 8, 2, 0.1),)
        )
        result = table3_em_failures.run(config)
        setting, failed, total = result.failures[0]
        assert total == 28
        assert 0 <= failed <= total
        assert result.failure_rate(setting) == pytest.approx(failed / total)
        assert "Table 3" in table3_em_failures.render(result)

    def test_categorical(self):
        result = categorical.run(categorical.CategoricalConfig(population=2048))
        assert result.binary_dimension == 7
        assert len(result.errors) == 6
        assert result.mean_error >= 0
        assert "Corollary 6.1" in categorical.render(result)


class TestAblations:
    def test_oue_ablation(self):
        config = ablations.OUEAblationConfig(population=2048, repetitions=1)
        result = ablations.run_oue_ablation(config)
        assert len(result.errors) == 4
        assert np.isfinite(result.relative_difference("InpRR"))
        assert "Ablation" in ablations.render_oue_ablation(result)

    def test_sample_vs_split(self):
        result = ablations.run_sample_vs_split()
        for m in result.config.num_items:
            if m > 1:
                assert result.advantage(m) > 1
        assert "Ablation" in ablations.render_sample_vs_split(result)

    def test_projection_ablation(self):
        config = ablations.ProjectionAblationConfig(
            population=2048, repetitions=1, protocols=("InpHT",)
        )
        result = ablations.run_projection_ablation(config)
        assert ("InpHT", "raw") in result.errors
        assert ("InpHT", "projected") in result.errors
        assert np.isfinite(result.improvement("InpHT"))
        assert "Ablation" in ablations.render_projection_ablation(result)
