"""Table 2: triangles before MCMC, after TbI-driven MCMC, and in the truth.

Paper claim (Section 5.3): seeding from the DP degree sequence gives a graph
with roughly the random twin's triangle count; fitting the TbI measurement
moves the synthetic graph a substantial fraction of the way to the real
graph's triangle count, for all four evaluation graphs.
"""

from __future__ import annotations

from conftest import emit
from repro.experiments import format_table, table2_tbi_triangles


def test_table2_seed_mcmc_truth(config):
    rows = table2_tbi_triangles(config)
    emit(
        format_table(
            ["graph", "seed triangles", "after TbI MCMC", "true triangles"],
            rows,
            title="Table 2 — triangle counts: seed graph, after TbI-driven MCMC, truth",
        )
    )
    for name, seed_triangles, mcmc_triangles, true_triangles in rows:
        # Shape: MCMC adds triangles relative to the seed...
        assert mcmc_triangles > seed_triangles, name
        # ...moving toward (but typically not beyond) the real count.
        assert mcmc_triangles <= true_triangles * 1.6, name
        # ...and recovers a non-trivial fraction of the seed-to-truth gap.
        gap = true_triangles - seed_triangles
        assert gap > 0, name
        recovered = (mcmc_triangles - seed_triangles) / gap
        assert recovered > 0.05, (name, recovered)
