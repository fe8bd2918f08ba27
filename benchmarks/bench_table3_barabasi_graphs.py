"""Table 3: the Barabási–Albert graphs used for the scalability study.

Paper claim: increasing the dynamical exponent β (with nodes and edges fixed)
raises the maximum degree, the triangle count and Σ d² — the quantity that
drives the incremental engine's memory and per-step cost in Figure 6.
"""

from __future__ import annotations

from conftest import emit
from repro.experiments import format_table, table3_barabasi


def test_table3_barabasi_sweep(config):
    rows = table3_barabasi(config)
    emit(
        format_table(
            ["beta", "nodes", "edges", "dmax", "triangles", "sum d^2"],
            rows,
            title="Table 3 — Barabasi-Albert graphs with increasing dynamical exponent",
        )
    )
    # Shape: nodes and edges are fixed across the sweep.
    assert len({row[1] for row in rows}) == 1
    assert max(row[2] for row in rows) - min(row[2] for row in rows) <= rows[0][2] * 0.02
    # Shape: dmax and sum d^2 increase (weakly) with beta; compare endpoints.
    assert rows[-1][3] > rows[0][3]
    assert rows[-1][5] > rows[0][5]
    # Shape: triangles grow with the heavier tail as well.
    assert rows[-1][4] >= rows[0][4]
