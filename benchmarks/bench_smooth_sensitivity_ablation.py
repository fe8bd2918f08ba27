"""Ablation: worst-case noise vs smooth sensitivity vs weighted records.

Paper claim (Section 1.1): smooth sensitivity adapts the noise to the
instance, so it beats worst-case noise on the benign bounded-degree graph —
but if the worst-case structure appears anywhere (the union of Figure 1's two
graphs) it must still add Θ(|V|)-scale noise, whereas weighted records
suppress only the troublesome half and keep constant noise on the rest.
"""

from __future__ import annotations

from conftest import emit
from repro.experiments import format_table, smooth_sensitivity_ablation


def test_smooth_sensitivity_vs_weighted_records(config):
    rows = smooth_sensitivity_ablation(
        nodes=max(200, int(400 * config.graph_scale)),
        epsilon=0.5,
        delta=0.01,
        trials=25,
        seed=config.seed,
    )
    emit(
        format_table(
            ["graph", "mechanism", "target value", "noise scale", "mean relative error"],
            rows,
            title="Ablation — worst-case vs smooth sensitivity vs weighted records (Section 1.1)",
        )
    )
    scales = {(graph, mechanism): scale for graph, mechanism, _, scale, _ in rows}
    rel_errors = {(graph, mechanism): err for graph, mechanism, _, _, err in rows}

    # Shape: smooth sensitivity adapts on the benign graph — its noise scale is
    # well below the worst-case mechanism's there.
    assert scales[("best-case (right)", "smooth sensitivity")] < (
        scales[("best-case (right)", "worst-case noise")] / 3.0
    )
    # Shape: on the union graph smooth sensitivity is back to worst-case scale
    # (within a constant factor) ...
    assert scales[("union (left + right)", "smooth sensitivity")] > (
        scales[("union (left + right)", "worst-case noise")] / 3.0
    )
    # ... while the weighted mechanism's relative error stays far smaller.
    assert rel_errors[("union (left + right)", "weighted records")] < (
        rel_errors[("union (left + right)", "smooth sensitivity")] / 5.0
    )
    # Shape: weighted records remain accurate on the benign graph too.
    assert rel_errors[("best-case (right)", "weighted records")] < 0.5
