"""Benchmark: the columnar vectorized backend on a join-heavy workload.

The vectorized backend exists for exactly one reason: chains of stable
transformations dominated by the ``length_two_paths`` self-join (Sections 2.7
and 3.3) spend their time in per-record Python on the eager evaluator.  This
benchmark generates an Erdős–Rényi graph of at least 10k edges, takes the
wedge-centre, Triangles-by-Intersect and Triangles-by-Degree measurements on
the eager and vectorized backends, and asserts the vectorized backend is at
least 3× faster — the acceptance bar for the columnar subsystem.  A structural agreement
check (identical released records under the shared seed, weights within
tolerance) guards against "fast because wrong".

``REPRO_BENCH_COLUMNAR_EDGES`` scales the graph and
``REPRO_BENCH_MIN_COLUMNAR_SPEEDUP`` relaxes the bar for noisy shared CI
runners (the CI smoke step runs one small iteration with a 1.2× bar).
"""

from __future__ import annotations

import os

from conftest import emit
from repro.columnar.bench import backend_comparison, format_comparison

EDGES = int(os.environ.get("REPRO_BENCH_COLUMNAR_EDGES", "10000"))
ROUNDS = int(os.environ.get("REPRO_BENCH_COLUMNAR_ROUNDS", "3"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_COLUMNAR_SPEEDUP", "3.0"))


def test_vectorized_backend_speedup_on_join_heavy_workload():
    report = backend_comparison(
        edges=EDGES, seed=0, rounds=ROUNDS, backends=("eager", "vectorized")
    )
    emit(format_comparison(report))

    speedup = report["speedups"]["vectorized"]
    assert speedup >= MIN_SPEEDUP, (
        f"expected the vectorized backend to be >= {MIN_SPEEDUP:g}x faster than "
        f"eager on the {EDGES}-edge join workload, got {speedup:.2f}x"
    )


def test_backends_release_identical_measurements():
    """Same seed, same plans: the two backends must agree record-for-record."""
    from repro.analyses import protect_graph, triangles_by_intersect_query
    from repro.core import PrivacySession
    from repro.graph.generators import erdos_renyi

    graph = erdos_renyi(200, 500, rng=0)
    released = {}
    for backend in ("eager", "vectorized"):
        session = PrivacySession(seed=17, executor=backend)
        edges = protect_graph(session, graph, total_epsilon=float("inf"))
        released[backend] = triangles_by_intersect_query(edges).noisy_count(0.1)
    eager, vectorized = released["eager"].to_dict(), released["vectorized"].to_dict()
    assert eager.keys() == vectorized.keys()
    for record, value in eager.items():
        assert abs(value - vectorized[record]) < 1e-6
