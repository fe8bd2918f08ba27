"""Ablation (Section 1.2, benefit #2): combining multiple measurements.

Paper claim: probabilistic inference integrates every released measurement
into one posterior, so fitting a synthetic graph to the TbI statistic *and*
the joint degree distribution simultaneously produces a graph that still
respects the triangle structure while additionally matching second-order
degree correlations — constraints reinforce rather than interfere.
"""

from __future__ import annotations

from conftest import emit
from repro.experiments import combined_measurements_ablation, format_table


def test_combining_tbi_with_jdd(config):
    rows = combined_measurements_ablation(config)
    emit(
        format_table(
            ["configuration", "seed triangles", "final triangles", "true triangles"],
            rows,
            title="Section 1.2 ablation — fitting TbI alone vs TbI + JDD simultaneously",
        )
    )
    by_label = {label: (seed, final, truth) for label, seed, final, truth in rows}
    tbi_seed, tbi_final, truth = by_label["TbI only"]
    both_seed, both_final, _ = by_label["TbI + JDD"]
    # Shape: both configurations add triangles over their seeds.
    assert tbi_final > tbi_seed
    assert both_final > both_seed
    # Shape: adding the JDD constraint does not destroy the triangle fit —
    # the combined run recovers at least a third of what TbI-only recovered.
    assert (both_final - both_seed) >= (tbi_final - tbi_seed) / 3.0
    # Shape: neither overshoots the truth wildly.
    assert max(tbi_final, both_final) <= truth * 1.6
