"""Figure 4: TbI-driven MCMC trajectories, real graphs versus random twins.

Paper claim (Section 5.3): the chains fitting real graphs climb to many more
triangles than the chains fitting degree-preserving random twins — MCMC only
introduces triangles when the released measurement calls for them.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.experiments import figure4_tbi_fitting, format_series, format_table


def test_figure4_real_vs_random_trajectories(config):
    results = figure4_tbi_fitting(config)
    emit(
        format_table(
            ["configuration", "true triangles", "seed triangles", "final triangles", "steps/sec"],
            [
                (r.label, r.true_triangles, r.seed_triangles, r.final_triangles, r.steps_per_second)
                for r in results
            ],
            title="Figure 4 — TbI-driven MCMC, real stand-ins vs Random(.) twins",
        )
    )
    for result in results:
        emit(format_series(f"{result.label}: triangles vs MCMC step", zip(result.steps, result.triangles)))

    by_label = {result.label: result for result in results}
    for name in ("CA-GrQc", "CA-HepPh", "CA-HepTh", "Caltech"):
        real = by_label[name]
        random = by_label[f"Random({name})"]
        # Shape: every run costs 7 epsilon (3 seed + 4 TbI).
        assert real.privacy_cost == pytest.approx(7 * config.epsilon)
        # Shape: the chain fitting the real graph gains clearly more triangles
        # over its seed than the chain fitting the random twin.
        real_gain = real.final_triangles - real.seed_triangles
        random_gain = random.final_triangles - random.seed_triangles
        assert real_gain > max(2.0 * random_gain, 10), name
        # Shape: the trajectory for the real graph is (weakly) increasing
        # overall — it ends above where it starts.
        assert real.triangles[-1] >= real.triangles[0], name
