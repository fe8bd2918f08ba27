"""Backend comparison harness: eager vs dataflow vs vectorized.

One function, :func:`backend_comparison`, drives the same join-heavy
measurement batch — the wedge-centre histogram, Triangles-by-Intersect and
Triangles-by-Degree, all built on the ``length_two_paths`` self-join —
through any subset of the execution backends over one generated graph, and
reports wall-clock seconds plus speedups relative to the eager baseline.
TbD is in the batch because its path-keyed joins are where a query most
easily drops to the per-record kernel paths, which then shows in the ratio.
It backs both the ``repro bench`` CLI subcommand (which writes
``BENCH_columnar.json``) and the
``benchmarks/bench_columnar.py`` regression benchmark (which asserts the
vectorized backend's ≥3× speedup on ≥10k-edge graphs).

Timing covers the measurement batch only; graph generation, protection and
session setup are excluded, and the same seed is used for every backend so
they evaluate identical plans over identical data (and, thanks to the
canonical noise order, release identical measurements).
"""

from __future__ import annotations

import time
from typing import Sequence

from ..analyses import (
    length_two_paths,
    protect_graph,
    triangles_by_degree_query,
    triangles_by_intersect_query,
)
from ..core.queryable import PrivacySession
from ..graph.generators import erdos_renyi
from .specs import Field

__all__ = ["BACKENDS", "backend_comparison", "format_comparison"]

#: Backends the comparison knows how to drive, in report order.
BACKENDS = ("eager", "dataflow", "vectorized")


def _measure_once(backend: str, graph, seed: int) -> tuple[float, int]:
    """One timed run of the workload batch on ``backend``.

    Returns (seconds, released record count).  A fresh session per run keeps
    budgets, noise state and executor caches comparable across backends.
    """
    session = PrivacySession(seed=seed, executor=backend)
    edges = protect_graph(session, graph, total_epsilon=float("inf"))
    paths = length_two_paths(edges)
    requests = [
        (paths.select(Field(1)), 0.1, "wedge_centers"),
        (triangles_by_intersect_query(edges), 0.1, "tbi"),
        (triangles_by_degree_query(edges), 0.1, "tbd"),
    ]
    started = time.perf_counter()
    results = session.measure(*requests)
    elapsed = time.perf_counter() - started
    return elapsed, sum(len(result) for result in results)


def backend_comparison(
    edges: int = 10_000,
    seed: int = 0,
    rounds: int = 3,
    backends: Sequence[str] = BACKENDS,
) -> dict:
    """Time the join-heavy workload on each backend; return a report dict.

    ``edges`` is the number of undirected edges of the generated
    Erdős–Rényi graph (the protected symmetric dataset has ``2 × edges``
    records); each backend's time is the minimum over ``rounds`` runs.
    """
    if edges < 2:
        raise ValueError("the benchmark graph needs at least two edges")
    backends = list(backends)
    unknown = [name for name in backends if name not in BACKENDS]
    if unknown:
        raise ValueError(f"unknown backends: {unknown} (choose from {BACKENDS})")
    nodes = max(4, edges // 2)
    graph = erdos_renyi(nodes, edges, rng=seed)
    report: dict = {
        "workload": (
            "length_two_paths -> wedge_centers + triangles_by_intersect "
            "+ triangles_by_degree"
        ),
        "edges": edges,
        "nodes": nodes,
        "rounds": rounds,
        "backends": {},
        "speedups": {},
    }
    for backend in backends:
        best = None
        released = 0
        for round_index in range(rounds):
            elapsed, released = _measure_once(backend, graph, seed)
            best = elapsed if best is None else min(best, elapsed)
        report["backends"][backend] = {
            "seconds": best,
            "released_records": released,
        }
    baseline = report["backends"].get("eager", {}).get("seconds")
    if baseline:
        for backend, stats in report["backends"].items():
            report["speedups"][backend] = baseline / stats["seconds"]
    return report


def format_comparison(report: dict) -> str:
    """Render a :func:`backend_comparison` report as the CLI table."""
    from ..experiments import format_table

    rows = []
    for backend, stats in report["backends"].items():
        speedup = report["speedups"].get(backend)
        rows.append(
            (
                backend,
                f"{stats['seconds']:.4f}",
                f"{speedup:.2f}x" if speedup else "n/a",
                stats["released_records"],
            )
        )
    return format_table(
        ["backend", "seconds", "speedup vs eager", "released records"],
        rows,
        title=(
            f"Backend comparison — {report['workload']} "
            f"({report['edges']} edges, best of {report['rounds']})"
        ),
    )
