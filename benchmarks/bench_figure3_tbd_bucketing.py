"""Figure 3: TbD-driven synthesis with and without degree bucketing.

Paper claim (Section 5.2): the un-bucketed TbD measurement is dominated by
noise, so MCMC barely distinguishes CA-GrQc from its randomised twin; grouping
degrees into buckets concentrates the signal and lets the chain fitting the
real graph pull ahead — though it still falls well short of the true triangle
count.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.experiments import figure3_tbd_bucketing, format_series, format_table


def test_figure3_tbd_with_and_without_bucketing(config):
    results = figure3_tbd_bucketing(config)
    emit(
        format_table(
            ["configuration", "true triangles", "true r", "seed triangles", "final triangles", "final r", "privacy cost (eps)"],
            [
                (
                    r.label,
                    r.true_triangles,
                    r.true_assortativity,
                    r.seed_triangles,
                    r.final_triangles,
                    r.final_assortativity,
                    r.privacy_cost,
                )
                for r in results
            ],
            title="Figure 3 — TbD-driven MCMC on CA-GrQc vs Random(GrQc), with/without bucketing",
        )
    )
    for result in results:
        emit(format_series(f"{result.label}: triangles vs MCMC step", zip(result.steps, result.triangles)))

    by_label = {result.label: result for result in results}
    real_bucketed = by_label["CA-GrQc + buckets"]
    random_bucketed = by_label["Random(GrQc) + buckets"]
    real_plain = by_label["CA-GrQc"]

    # Shape: privacy cost is 12 epsilon (3 seed + 9 TbD) for every run.
    for result in results:
        assert result.privacy_cost == pytest.approx(12 * config.epsilon)
    # Shape: with bucketing, the chain fitting the real graph ends roughly at
    # or above the chain fitting the random twin.  The paper's own conclusion
    # (Section 5.2) is that even bucketed TbD is noise-dominated away from the
    # lowest-degree bucket, so at this scale the separation is weak; the
    # assertion allows the stochastic near-ties that weakness produces while
    # still failing if the random twin clearly pulls ahead.
    assert real_bucketed.final_triangles >= 0.7 * random_bucketed.final_triangles
    # Shape: even with bucketing the TbD fit undershoots the true count by a
    # wide margin (the paper's motivation for moving to TbI).
    assert real_bucketed.final_triangles < real_bucketed.true_triangles
    # Shape: the un-bucketed chain provides no better fit than the bucketed one.
    assert real_plain.final_triangles <= real_bucketed.final_triangles * 1.5 + 50
