"""Figure 1: worst-case versus weighted-record triangle counting.

Paper claim (Section 1.1): counting triangles with worst-case-sensitivity
noise adds error proportional to |V| regardless of the graph, while weighting
each triangle by 1/max degree measures the bounded-degree graph (Figure 1,
right) with constant noise.  Neither mechanism helps on the adversarial graph
(Figure 1, left) — and does not need to, since it has no triangles.
"""

from __future__ import annotations

from conftest import emit
from repro.experiments import figure1_comparison, format_table


def test_figure1_worst_vs_best_case(config):
    rows = figure1_comparison(
        nodes=max(100, int(400 * config.graph_scale)),
        epsilon=config.epsilon,
        trials=25,
        seed=config.seed,
    )
    emit(
        format_table(
            ["graph", "mechanism", "true triangles", "mean estimate", "mean |error|"],
            rows,
            title="Figure 1 — triangle counting, worst-case noise vs weighted records",
        )
    )
    errors = {(graph, mechanism): error for graph, mechanism, _, _, error in rows}
    # Shape: on the bounded-degree graph the weighted mechanism is at least
    # 5x more accurate than worst-case noise.
    assert errors[("best-case (right)", "weighted records")] < (
        errors[("best-case (right)", "worst-case noise")] / 5.0
    )
    # Shape: worst-case noise is as bad on the benign graph as on the
    # adversarial one (same |V|-scaled noise).
    worst_case_left = errors[("worst-case (left)", "worst-case noise")]
    worst_case_right = errors[("best-case (right)", "worst-case noise")]
    assert worst_case_right > worst_case_left / 10.0
