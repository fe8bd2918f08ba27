"""Figure 5: sensitivity of the TbI-driven synthesis to the choice of ε.

Paper claim (Section 5.3): across ε ∈ {0.01, 0.1, 1, 10} the attained triangle
count stays roughly flat, because the TbI signal of the real graph is large
enough to dominate the noise at every tested ε; variability grows as ε shrinks.
"""

from __future__ import annotations

import numpy as np
from conftest import emit
from repro.experiments import figure5_epsilon_sensitivity, format_table


def test_figure5_epsilon_sweep(config):
    rows = figure5_epsilon_sensitivity(config)
    emit(
        format_table(
            ["epsilon", "mean final triangles", "std final triangles", "true triangles"],
            rows,
            title="Figure 5 — TbI synthesis across epsilon (CA-GrQc stand-in, 3 runs each)",
        )
    )
    means = [mean for _, mean, _, _ in rows]
    truth = rows[0][3]
    # Shape: every epsilon recovers a non-trivial number of triangles.
    assert all(mean > 0 for mean in means)
    # Shape: the attained count does not change dramatically across four
    # orders of magnitude of epsilon (within a factor of ~3 between the
    # smallest and largest mean).
    assert max(means) <= 3.5 * max(min(means), 1.0)
    # Shape: nothing overshoots the truth by a large factor.
    assert all(mean <= truth * 1.6 for mean in means)
