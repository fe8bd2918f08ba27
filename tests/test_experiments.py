"""Tests for the experiment harness (configuration, reporting, workflows).

The heavyweight MCMC-based experiments are exercised end-to-end by the
benchmark suite; these tests run them at miniature scale to check the data
shapes and a few qualitative properties.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    ExperimentConfig,
    default_config,
    degree_sequence_ablation,
    figure1_comparison,
    format_series,
    format_table,
    format_value,
    jdd_accuracy_ablation,
    run_tbi_synthesis,
    table1_graph_statistics,
    table3_barabasi,
)
from repro.graph import load_paper_graph


@pytest.fixture()
def tiny_config():
    return ExperimentConfig(graph_scale=1.0, step_scale=1.0, epsilon=0.2, pow_=1000.0, seed=5)


class TestConfig:
    def test_default_config_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "2.5")
        monkeypatch.setenv("REPRO_BENCH_STEPS", "0.5")
        monkeypatch.setenv("REPRO_BENCH_SEED", "77")
        config = default_config()
        assert config.graph_scale == 2.5
        assert config.step_scale == 0.5
        assert config.seed == 77

    def test_default_config_rejects_malformed_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0,5")
        with pytest.raises(ValueError, match="REPRO_BENCH_SCALE='0,5'"):
            default_config()
        monkeypatch.delenv("REPRO_BENCH_SCALE")
        monkeypatch.setenv("REPRO_BENCH_SEED", "1.5")
        with pytest.raises(ValueError, match="REPRO_BENCH_SEED='1.5' is not a valid int"):
            default_config()

    def test_scaling_helpers(self, tiny_config):
        config = tiny_config.with_overrides(graph_scale=0.5, step_scale=2.0)
        assert config.scaled_graph(0.2) == pytest.approx(0.1)
        assert config.scaled_steps(100) == 200
        assert config.scaled_steps(0) == 1


class TestReport:
    def test_format_value(self):
        assert format_value(12345) == "12,345"
        assert format_value(0.12345) == "0.1235"
        assert format_value(3.14159) == "3.14"
        assert format_value(123456.7) == "123,457"
        assert format_value("name") == "name"
        assert format_value(float("nan")) == "nan"
        assert format_value(True) == "True"

    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [("a", 1), ("long-name", 2.5)], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert len(lines) == 5

    def test_format_series(self):
        series = format_series("triangles", [(100, 5), (200, 9)])
        assert series.startswith("triangles:")
        assert "100:5" in series


class TestLightweightExperiments:
    def test_figure1_shape(self):
        rows = figure1_comparison(nodes=120, epsilon=0.1, trials=10, seed=0)
        assert len(rows) == 4
        by_key = {(graph, mechanism): error for graph, mechanism, _, _, error in rows}
        # On the bounded-degree graph the weighted mechanism wins by a lot.
        assert by_key[("best-case (right)", "weighted records")] < (
            by_key[("best-case (right)", "worst-case noise")] / 5.0
        )

    def test_table1_rows_pair_real_and_random(self, tiny_config):
        rows = table1_graph_statistics(
            tiny_config, names=["CA-GrQc"], base_scales={"CA-GrQc": 0.05}
        )
        assert len(rows) == 2
        real, random = rows
        assert real[0] == "CA-GrQc"
        assert random[0] == "Random(CA-GrQc)"
        # Same degrees -> same node count, edge count, dmax; fewer triangles.
        assert real[1:4] == random[1:4]
        assert real[4] > random[4]

    def test_table3_columns_grow_with_beta(self, tiny_config):
        rows = table3_barabasi(tiny_config, nodes=400, edges_per_node=5, betas=(0.5, 0.7))
        assert len(rows) == 2
        low, high = rows
        assert high[3] >= low[3]  # dmax
        assert high[5] >= low[5]  # sum of squared degrees

    def test_ablation_rows(self, tiny_config):
        jdd_rows = jdd_accuracy_ablation(tiny_config, base_scale=0.04, epsilon=0.5)
        assert len(jdd_rows) == 2
        assert all(error >= 0 for _, error in jdd_rows)
        degree_rows = degree_sequence_ablation(tiny_config, base_scale=0.04, epsilon=0.5)
        assert len(degree_rows) == 3
        assert all(error >= 0 for _, error in degree_rows)

    def test_run_tbi_synthesis_returns_trajectory(self, tiny_config):
        graph = load_paper_graph("CA-GrQc", scale=0.04)
        result = run_tbi_synthesis(
            graph,
            "tiny",
            steps=300,
            epsilon=tiny_config.epsilon,
            pow_=tiny_config.pow_,
            seed=tiny_config.seed,
            record_every=100,
        )
        assert result.label == "tiny"
        assert len(result.steps) == 3
        assert len(result.triangles) == 3
        assert result.privacy_cost == pytest.approx(7 * tiny_config.epsilon)
        assert result.true_triangles > 0
        assert result.final_triangles >= 0
