"""MCMC scoring-backend comparison: dataflow vs vectorized vs incremental.

One function, :func:`mcmc_backend_comparison`, runs the same TbI + degree
synthesis workload through every MCMC scoring backend over graphs of several
sizes and reports steps/second — the quantity Figure 6 treats as *the*
scalability metric — plus cross-backend agreement: under a fixed seed the
dataflow and incremental chains take identical accept/reject decisions, so
their final per-measurement L1 distances must agree to float precision.

It backs the ``repro bench --mcmc`` CLI subcommand (which writes
``BENCH_mcmc.json``) and ``benchmarks/bench_figure6_scalability.py``'s
throughput regression test (which asserts the incremental backend's ≥2×
speedup over the full-pass vectorized backend at 10k edges).

The timed window covers only :meth:`GraphSynthesizer.run`; graph generation,
measurement and engine construction are reported separately.  The full-pass
vectorized backend is timed over fewer steps (its per-step cost is constant),
so agreement is asserted between the two incremental-asymptotics backends
which run the full chain.
"""

from __future__ import annotations

import os
import time
from typing import Sequence

from ..analyses import (
    node_degrees,
    protect_graph,
    triangles_by_intersect_query,
)
from ..columnar.interning import global_interner
from ..core.queryable import PrivacySession
from ..graph.generators import erdos_renyi, random_twin
from .random_walks import EdgeSwapWalk
from .synthesizer import SCORING_BACKENDS, GraphSynthesizer

__all__ = [
    "MCMC_BACKENDS",
    "mcmc_backend_comparison",
    "chain_scaling_comparison",
    "format_mcmc_comparison",
    "format_chain_scaling",
]

#: Backends the comparison knows how to drive, in report order.
MCMC_BACKENDS = tuple(SCORING_BACKENDS)


def _run_backend(
    measurements: list,
    seed_graph,
    backend: str,
    steps: int,
    seed: int,
    pow_: float,
    proposal_batch: int | None = None,
) -> dict:
    started = time.perf_counter()
    synthesizer = GraphSynthesizer(
        measurements, seed_graph, pow_=pow_, rng=seed, backend=backend
    )
    build_seconds = time.perf_counter() - started
    result = synthesizer.run(steps, proposal_batch=proposal_batch)
    if hasattr(synthesizer.tracker, "resynchronize"):
        synthesizer.tracker.resynchronize()
    return {
        "backend": backend,
        "proposal_batch": proposal_batch,
        "steps": result.steps,
        "accepted": result.accepted,
        "build_seconds": build_seconds,
        "run_seconds": result.elapsed_seconds,
        "steps_per_second": result.steps_per_second,
        "log_score": synthesizer.log_score,
        "distances": synthesizer.distances(),
        "state_entries": synthesizer.state_entry_count(),
    }


def _fused_scoring_micro(
    measurements: list,
    seed_graph,
    seed: int,
    pow_: float,
    batch: int,
    repeats: int = 12,
) -> dict:
    """Candidates/second of fused probe scoring vs sequential scoring.

    This isolates the tentpole's fused-kernel-pass speedup from the MH
    consumption loop: both paths score the same ``batch`` candidate swaps
    against the same unchanged state, so the ratio is the pure amortisation
    of per-evaluation overhead across the batch (the regime that matters for
    low-acceptance chains, where whole batches are consumed per fused pass).
    """
    from .columnar_scoring import IncrementalColumnarScoreEngine
    from ..core.dataset import WeightedDataset

    engine = IncrementalColumnarScoreEngine(
        measurements,
        {
            "edges": WeightedDataset.from_records(
                seed_graph.to_edge_records(symmetric=True)
            )
        },
        pow_=pow_,
    )
    walk = EdgeSwapWalk(seed_graph.copy(), rng=seed + 1)
    candidates: list[dict] = []
    while len(candidates) < batch:
        proposal = walk.propose()
        if proposal is not None:
            candidates.append({"edges": proposal[0]})
    timings = {}
    for label, scorer in (
        ("fused", engine.score_candidates),
        ("sequential", engine._score_sequentially),
    ):
        scorer(candidates)  # warm-up
        started = time.perf_counter()
        for _ in range(repeats):
            scorer(candidates)
        timings[label] = (repeats * batch) / (time.perf_counter() - started)
    return {
        "batch": batch,
        "fused_candidates_per_second": timings["fused"],
        "sequential_candidates_per_second": timings["sequential"],
        "fused_speedup": timings["fused"] / timings["sequential"],
    }


def _build_workload(edges: int, seed: int, epsilon: float):
    """The comparison's standard workload: TbI + degrees over an ER graph."""
    nodes = max(4, edges // 2)
    graph = erdos_renyi(nodes, edges, rng=seed)
    session = PrivacySession(seed=seed)
    protected = protect_graph(session, graph, total_epsilon=float("inf"))
    measurements = list(
        session.measure(
            (triangles_by_intersect_query(protected), epsilon, "tbi"),
            (node_degrees(protected), epsilon, "degrees"),
        )
    )
    seed_graph = random_twin(graph, rng=seed)
    return graph, measurements, seed_graph


def chain_scaling_comparison(
    edges: int = 100_000,
    steps: int = 400,
    process_counts: Sequence[int] = (1, 2, 4),
    seed: int = 0,
    pow_: float = 1.0,
    epsilon: float = 0.1,
    backend: str = "incremental",
    proposal_batch: int | None = 16,
    start_method: str | None = None,
) -> dict:
    """Aggregate steps/second of process-parallel chains vs a single chain.

    For each entry of ``process_counts`` this runs ``P`` independent chains
    in ``P`` worker processes (:func:`~repro.inference.parallel.run_chains`
    with ``processes=P``) and reports the aggregate throughput — total steps
    divided by the slowest chain's window, the figure a wall-clock observer
    sees — against a single in-process chain as the baseline.  ``cpu_count``
    is recorded because the achievable speedup is capped by physical cores:
    on a single-core container every process count collapses to ~1×, which
    the report states honestly rather than hiding.

    The ``agreement`` entry re-runs chain 0 on the thread path with the same
    spawned generator and asserts-by-reporting that the process path walked
    the *same* chain (identical accepts, scores and final graph) — the
    bit-for-bit reproducibility contract of the sharded subsystem.
    """
    from .parallel import run_chains

    _, measurements, seed_graph = _build_workload(edges, seed, epsilon)

    baseline = _run_backend(
        measurements, seed_graph, backend, steps, seed, pow_, proposal_batch
    )
    report: dict = {
        "workload": "TbI + node_degrees -> process-parallel edge-swap chains",
        "edges": edges,
        "steps": steps,
        "pow": pow_,
        "seed": seed,
        "backend": backend,
        "cpu_count": os.cpu_count(),
        "start_method": start_method
        or os.environ.get("REPRO_SHARD_START_METHOD", "spawn"),
        "single_chain": baseline,
        "scaling": [],
    }

    def run(processes: int | None, chains: int):
        return run_chains(
            measurements,
            seed_graph,
            steps=steps,
            chains=chains,
            pow_=pow_,
            backend=backend,
            rng=seed,
            proposal_batch=proposal_batch,
            processes=processes,
            start_method=start_method,
        )

    single_process_one = None
    for processes in process_counts:
        started = time.perf_counter()
        result = run(processes, chains=processes)
        wall = time.perf_counter() - started
        if processes == 1:
            single_process_one = result
        total_steps = sum(chain.result.steps for chain in result.chains)
        aggregate = result.steps_per_second()
        report["scaling"].append(
            {
                "processes": processes,
                "chains": processes,
                "total_steps": total_steps,
                "aggregate_steps_per_second": aggregate,
                "wall_seconds": wall,
                "wall_steps_per_second": total_steps / wall if wall > 0 else 0.0,
                "speedup_vs_single": aggregate / baseline["steps_per_second"]
                if baseline["steps_per_second"] > 0
                else 0.0,
                "accepted": [chain.result.accepted for chain in result.chains],
                "log_scores": [chain.log_score for chain in result.chains],
            }
        )

    # Bit-identity: the same spawned generator must walk the same chain
    # whether it runs in this process (threads) or in a pool worker.
    thread = run(None, chains=1).chains[0]
    process = (single_process_one or run(1, chains=1)).chains[0]
    report["agreement"] = {
        "accepted_equal": thread.result.accepted == process.result.accepted,
        "log_score_diff": abs(thread.log_score - process.log_score),
        "max_distance_diff": max(
            abs(thread.distances[name] - process.distances[name])
            for name in thread.distances
        ),
        "graphs_equal": thread.graph == process.graph,
    }
    return report


def mcmc_backend_comparison(
    edge_counts: Sequence[int] = (2000, 10000),
    steps: int = 2000,
    vectorized_steps: int = 120,
    seed: int = 0,
    pow_: float = 1.0,
    epsilon: float = 0.1,
    backends: Sequence[str] = MCMC_BACKENDS,
    proposal_batch: int | None = 16,
    processes: int | None = None,
    start_method: str | None = None,
) -> dict:
    """Time TbI+degree-driven MCMC on each backend across graph sizes.

    ``steps`` drives the dataflow/incremental chains; ``vectorized_steps``
    caps the full-pass backend (per-step cost is size-dependent but
    step-independent, so throughput is comparable).  ``proposal_batch`` sets
    the batch size of the ``fused_scoring`` micro-entry — fused vs sequential
    candidate scoring on the incremental backend, isolated from the MH
    consumption loop; pass ``None`` to skip it.  ``pow_`` defaults to 1 so a
    healthy fraction of proposals is accepted and the accepted-path
    (state-mutating) cost dominates, matching real synthesis workloads.

    Each size entry records the process-wide interner's vocabulary before
    and after its runs: node identifiers dominate the dictionary, so growth
    should track the number of *distinct* graphs measured, not the number of
    backends or steps — a leak here means codes are being minted per-chain.
    ``processes=P`` appends a ``chain_scaling`` section
    (:func:`chain_scaling_comparison` at the largest size) comparing
    process-parallel chains at 1 and ``P`` workers.
    """
    backends = list(backends)
    unknown = [name for name in backends if name not in MCMC_BACKENDS]
    if unknown:
        raise ValueError(f"unknown backends: {unknown} (choose from {MCMC_BACKENDS})")
    report: dict = {
        "workload": "TbI + node_degrees -> edge-swap MCMC",
        "steps": steps,
        "vectorized_steps": vectorized_steps,
        "pow": pow_,
        "seed": seed,
        "sizes": [],
    }
    for edges in edge_counts:
        if edges < 2:
            raise ValueError("the benchmark graph needs at least two edges")
        graph, measurements, seed_graph = _build_workload(edges, seed, epsilon)
        vocabulary_before = len(global_interner())
        entry: dict = {
            "edges": edges,
            "nodes": graph.number_of_nodes(),
            "degree_sum_of_squares": int(graph.degree_sum_of_squares()),
            "backends": {},
            "speedups": {},
        }
        for backend in backends:
            backend_steps = vectorized_steps if backend == "vectorized" else steps
            entry["backends"][backend] = _run_backend(
                measurements, seed_graph, backend, backend_steps, seed, pow_
            )
        if proposal_batch and "incremental" in backends:
            entry["fused_scoring"] = _fused_scoring_micro(
                measurements, seed_graph, seed, pow_, proposal_batch
            )
        flow = entry["backends"].get("dataflow")
        incremental = entry["backends"].get("incremental")
        if flow and incremental:
            # Fixed seed + identical chains: the per-measurement distances of
            # the two incremental-asymptotics backends must agree.
            entry["agreement"] = {
                "accepted_equal": flow["accepted"] == incremental["accepted"],
                "max_distance_diff": max(
                    abs(flow["distances"][name] - incremental["distances"][name])
                    for name in flow["distances"]
                ),
            }
        baseline = entry["backends"].get("vectorized", {}).get("steps_per_second")
        if baseline:
            for name, stats in entry["backends"].items():
                entry["speedups"][name] = stats["steps_per_second"] / baseline
        vocabulary_after = len(global_interner())
        entry["interner"] = {
            "atoms_before": vocabulary_before,
            "atoms_after": vocabulary_after,
            "growth": vocabulary_after - vocabulary_before,
        }
        report["sizes"].append(entry)
    if processes:
        report["chain_scaling"] = chain_scaling_comparison(
            edges=max(edge_counts),
            steps=steps,
            process_counts=tuple(sorted({1, processes})),
            seed=seed,
            pow_=pow_,
            epsilon=epsilon,
            proposal_batch=proposal_batch,
            start_method=start_method,
        )
    return report


def format_mcmc_comparison(report: dict) -> str:
    """Render a :func:`mcmc_backend_comparison` report as the CLI table."""
    from ..experiments import format_table

    rows = []
    for entry in report["sizes"]:
        for name, stats in entry["backends"].items():
            speedup = entry["speedups"].get(name)
            rows.append(
                (
                    entry["edges"],
                    name,
                    stats["steps"],
                    stats["accepted"],
                    f"{stats['steps_per_second']:.1f}",
                    f"{speedup:.2f}x" if speedup else "n/a",
                    f"{stats['build_seconds']:.3f}",
                )
            )
    table = format_table(
        [
            "edges",
            "backend",
            "steps",
            "accepted",
            "steps/s",
            "vs vectorized",
            "build s",
        ],
        rows,
        title=f"MCMC scoring backends — {report['workload']} (pow={report['pow']})",
    )
    footnotes = []
    for entry in report["sizes"]:
        fused = entry.get("fused_scoring")
        if fused:
            footnotes.append(
                f"fused batch-{fused['batch']} scoring at {entry['edges']} edges: "
                f"{fused['fused_candidates_per_second']:.0f} candidates/s vs "
                f"{fused['sequential_candidates_per_second']:.0f} sequential "
                f"({fused['fused_speedup']:.2f}x)"
            )
        vocabulary = entry.get("interner")
        if vocabulary:
            footnotes.append(
                f"interner vocabulary at {entry['edges']} edges: "
                f"{vocabulary['atoms_before']} -> {vocabulary['atoms_after']} atoms "
                f"(+{vocabulary['growth']})"
            )
    if footnotes:
        table += "\n" + "\n".join(footnotes)
    scaling = report.get("chain_scaling")
    if scaling:
        table += "\n\n" + format_chain_scaling(scaling)
    return table


def format_chain_scaling(report: dict) -> str:
    """Render a :func:`chain_scaling_comparison` report as a CLI table."""
    from ..experiments import format_table

    rows = [
        (
            row["processes"],
            row["total_steps"],
            f"{row['aggregate_steps_per_second']:.1f}",
            f"{row['speedup_vs_single']:.2f}x",
            f"{row['wall_seconds']:.2f}",
        )
        for row in report["scaling"]
    ]
    table = format_table(
        ["processes", "steps", "agg steps/s", "vs 1 chain", "wall s"],
        rows,
        title=(
            f"Process-parallel chains — {report['edges']} edges, "
            f"backend={report['backend']}, cpu_count={report['cpu_count']}, "
            f"start_method={report['start_method']}"
        ),
    )
    agreement = report["agreement"]
    table += (
        f"\nthread/process bit-identity: accepted_equal="
        f"{agreement['accepted_equal']}, graphs_equal={agreement['graphs_equal']}, "
        f"max_distance_diff={agreement['max_distance_diff']:.2e}"
    )
    return table
