"""Table 1: statistics of the evaluation graphs and their random twins.

Paper claim: the real graphs have many more triangles (and, for the
collaboration networks, strongly positive assortativity) than their
degree-preserving randomisations, which is exactly the structure the MCMC
experiments later try to recover.  Absolute numbers differ because the graphs
here are scaled-down synthetic stand-ins (see DESIGN.md, substitutions).
"""

from __future__ import annotations

from conftest import emit
from repro.experiments import format_table, table1_graph_statistics
from repro.graph import PAPER_REPORTED_STATISTICS


def test_table1_graph_statistics(config):
    rows = table1_graph_statistics(config)
    emit(
        format_table(
            ["graph", "nodes", "edges", "dmax", "triangles", "assortativity r"],
            rows,
            title="Table 1 — stand-in graph statistics (scaled-down synthetic substitutes)",
        )
    )
    paper_rows = [
        (name, stats["nodes"], stats["edges"], stats["dmax"], stats["triangles"], stats["assortativity"])
        for name, stats in PAPER_REPORTED_STATISTICS.items()
    ]
    emit(
        format_table(
            ["graph", "nodes", "edges", "dmax", "triangles", "assortativity r"],
            paper_rows,
            title="Table 1 — values reported in the paper (full-size real datasets)",
        )
    )

    stats = {row[0]: row for row in rows}
    for name in ("CA-GrQc", "CA-HepPh", "CA-HepTh", "Caltech", "Epinions"):
        real = stats[name]
        random = stats[f"Random({name})"]
        # Degree-preserving twins: identical node/edge/dmax columns.
        assert real[1:4] == random[1:4]
        # Shape: the real graph has more triangles than its randomisation.
        assert real[4] > random[4]
    # Shape: collaboration networks are assortative, their twins are not.
    for name in ("CA-GrQc", "CA-HepPh", "CA-HepTh"):
        assert stats[name][5] > 0.1
        assert abs(stats[f"Random({name})"][5]) < 0.15
    # Shape: the social graphs sit near zero assortativity.
    assert abs(stats["Caltech"][5]) < 0.2
    assert abs(stats["Epinions"][5]) < 0.2
