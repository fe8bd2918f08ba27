"""The paper's experiments, one function per table or figure.

Each function takes an :class:`~repro.experiments.config.ExperimentConfig`,
runs the corresponding experiment on the synthetic stand-in graphs, and
returns plain data structures (lists of row tuples, or per-configuration
trajectories).  The experiment table (:data:`repro.experiments.EXPERIMENTS`)
calls each one with the parametrisation the CLI and the paper suite share,
renders its result and checks its claims; the functions stay importable from
examples and tests at other sizes.

Graph sizes and MCMC step counts are scaled down from the paper (the base
scales and step counts are the defaults below); the claims check the *shapes*
the paper reports, not its absolute numbers.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..analyses import (
    measure_joint_degrees,
    protect_graph,
    rescale_jdd_measurement,
    triangles_by_degree_query,
    triangles_by_intersect_query,
)
from ..baselines import (
    degree_sequence_error,
    figure1_best_case_graph,
    figure1_worst_case_graph,
    hay_degree_sequence,
    jdd_error,
    sala_joint_degree_distribution,
    weighted_triangle_count,
    worst_case_triangle_count,
)
from ..core.laplace import LaplaceNoise
from ..core.queryable import PrivacySession
from ..graph import (
    Graph,
    barabasi_albert,
    load_paper_graph,
    paper_graph_with_twin,
    random_twin,
)
from ..graph.statistics import (
    assortativity,
    degree_sequence,
    summarize,
    triangle_count,
)
from ..inference import GraphSynthesizer, SynthesisOutcome, synthesize_graph
from ..postprocess import fit_degree_sequence, isotonic_regression
from .config import ExperimentConfig

__all__ = [
    "figure1_comparison",
    "table1_graph_statistics",
    "TrajectoryResult",
    "figure3_tbd_bucketing",
    "table2_tbi_triangles",
    "figure4_tbi_fitting",
    "figure5_epsilon_sensitivity",
    "table3_barabasi",
    "figure6_scalability",
    "jdd_accuracy_ablation",
    "degree_sequence_ablation",
    "combined_measurements_ablation",
    "smooth_sensitivity_ablation",
    "run_tbi_synthesis",
    "run_tbd_synthesis",
]


# ----------------------------------------------------------------------
# Shared synthesis helpers
# ----------------------------------------------------------------------
@dataclass
class TrajectoryResult:
    """One MCMC trajectory plus the context needed to interpret it."""

    label: str
    true_triangles: int
    true_assortativity: float
    seed_triangles: int
    final_triangles: int
    final_assortativity: float
    steps: list[int] = field(default_factory=list)
    triangles: list[float] = field(default_factory=list)
    steps_per_second: float = 0.0
    privacy_cost: float = 0.0


def _outcome_to_trajectory(label: str, graph: Graph, outcome: SynthesisOutcome) -> TrajectoryResult:
    trajectory = outcome.mcmc_result.trajectory
    return TrajectoryResult(
        label=label,
        true_triangles=triangle_count(graph),
        true_assortativity=assortativity(graph),
        seed_triangles=outcome.seed_triangles,
        final_triangles=outcome.synthetic_triangles,
        final_assortativity=assortativity(outcome.synthetic_graph),
        steps=[record.step for record in trajectory],
        triangles=[record.metrics.get("triangles", 0.0) for record in trajectory],
        steps_per_second=outcome.mcmc_result.steps_per_second,
        privacy_cost=outcome.privacy_cost.get("edges", 0.0),
    )


def run_tbi_synthesis(
    graph: Graph,
    label: str,
    steps: int,
    epsilon: float,
    pow_: float,
    seed: int,
    record_every: int | None = None,
) -> TrajectoryResult:
    """Seed from DP degree measurements, then fit to the TbI query.

    Privacy cost: 3ε (seed) + 4ε (TbI) = 7ε, as in Section 5.3.
    """
    session = PrivacySession(seed=seed)
    edges = protect_graph(session, graph)
    tbi = triangles_by_intersect_query(edges)
    outcome = synthesize_graph(
        session,
        edges,
        fit_queries=[(tbi, epsilon, "triangles_by_intersect")],
        seed_epsilon=epsilon,
        mcmc_steps=steps,
        pow_=pow_,
        record_every=record_every or max(1, steps // 10),
        rng=seed + 1,
    )
    return _outcome_to_trajectory(label, graph, outcome)


def run_tbd_synthesis(
    graph: Graph,
    label: str,
    steps: int,
    epsilon: float,
    pow_: float,
    seed: int,
    bucket: int = 1,
    record_every: int | None = None,
) -> TrajectoryResult:
    """Seed from DP degree measurements, then fit to the TbD query.

    Privacy cost: 3ε (seed) + 9ε (TbD) = 12ε, as in Section 5.2.
    """
    session = PrivacySession(seed=seed)
    edges = protect_graph(session, graph)
    tbd = triangles_by_degree_query(edges, bucket=bucket)
    outcome = synthesize_graph(
        session,
        edges,
        fit_queries=[(tbd, epsilon, f"triangles_by_degree(bucket={bucket})")],
        seed_epsilon=epsilon,
        mcmc_steps=steps,
        pow_=pow_,
        record_every=record_every or max(1, steps // 10),
        rng=seed + 1,
    )
    return _outcome_to_trajectory(label, graph, outcome)


# ----------------------------------------------------------------------
# Figure 1: worst case vs best case triangle counting
# ----------------------------------------------------------------------
def figure1_comparison(
    nodes: int = 400,
    epsilon: float = 0.1,
    trials: int = 25,
    seed: int = 1,
) -> list[tuple[str, str, float, float, float]]:
    """Compare worst-case-noise and weighted triangle counting on Figure 1.

    Returns rows ``(graph, mechanism, true count, mean estimate, mean |error|)``
    for the worst-case graph (left of Figure 1) and the bounded-degree graph
    (right).
    """
    noise = LaplaceNoise(seed)
    rows: list[tuple[str, str, float, float, float]] = []
    graphs = {
        "worst-case (left)": figure1_worst_case_graph(nodes),
        "best-case (right)": figure1_best_case_graph(nodes),
    }
    for graph_name, graph in graphs.items():
        truth = triangle_count(graph)
        for mechanism in ("worst-case noise", "weighted records"):
            estimates = []
            errors = []
            for _ in range(trials):
                if mechanism == "worst-case noise":
                    estimate = worst_case_triangle_count(graph, epsilon, noise=noise)
                else:
                    _, estimate = weighted_triangle_count(graph, epsilon, noise=noise)
                estimates.append(estimate)
                errors.append(abs(estimate - truth))
            rows.append(
                (
                    graph_name,
                    mechanism,
                    float(truth),
                    float(np.mean(estimates)),
                    float(np.mean(errors)),
                )
            )
    return rows


# ----------------------------------------------------------------------
# Table 1: evaluation graph statistics
# ----------------------------------------------------------------------
def table1_graph_statistics(
    config: ExperimentConfig,
    names: Sequence[str] = ("CA-GrQc", "CA-HepPh", "CA-HepTh", "Caltech", "Epinions"),
    base_scales: dict[str, float] | None = None,
) -> list[tuple[str, int, int, int, int, float]]:
    """Statistics of the stand-in graphs and their degree-preserving twins.

    Returns rows ``(name, nodes, edges, dmax, triangles, assortativity)`` for
    each stand-in followed by its ``Random(·)`` twin — the same columns as
    Table 1.
    """
    base_scales = base_scales or {
        "CA-GrQc": 0.2,
        "CA-HepPh": 0.1,
        "CA-HepTh": 0.15,
        "Caltech": 0.4,
        "Epinions": 0.03,
    }
    rows: list[tuple[str, int, int, int, int, float]] = []
    for name in names:
        scale = config.scaled_graph(base_scales.get(name, 0.2))
        graph, twin = paper_graph_with_twin(name, scale=scale)
        for label, candidate in ((name, graph), (f"Random({name})", twin)):
            stats = summarize(candidate)
            rows.append(
                (
                    label,
                    int(stats["nodes"]),
                    int(stats["edges"]),
                    int(stats["dmax"]),
                    int(stats["triangles"]),
                    float(stats["assortativity"]),
                )
            )
    return rows


# ----------------------------------------------------------------------
# Figure 3: TbD with and without bucketing
# ----------------------------------------------------------------------
def figure3_tbd_bucketing(
    config: ExperimentConfig,
    base_scale: float = 0.06,
    base_steps: int = 3000,
    bucket: int = 5,
) -> list[TrajectoryResult]:
    """TbD-driven MCMC on CA-GrQc and Random(GrQc), with/without bucketing.

    The per-degree bucket size is scaled down along with the graphs.
    """
    scale = config.scaled_graph(base_scale)
    steps = config.scaled_steps(base_steps)
    graph, twin = paper_graph_with_twin("CA-GrQc", scale=scale)
    results = []
    for label, candidate, bucket_size in (
        ("CA-GrQc", graph, 1),
        ("Random(GrQc)", twin, 1),
        ("CA-GrQc + buckets", graph, bucket),
        ("Random(GrQc) + buckets", twin, bucket),
    ):
        results.append(
            run_tbd_synthesis(
                candidate,
                label,
                steps=steps,
                epsilon=config.epsilon,
                pow_=config.pow_,
                seed=config.seed,
                bucket=bucket_size,
            )
        )
    return results


# ----------------------------------------------------------------------
# Table 2 and Figure 4: TbI-driven synthesis
# ----------------------------------------------------------------------
#: Stand-in scale per graph for the TbI fits of Table 2 and Figure 4.
_TBI_BASE_SCALES = {"CA-GrQc": 0.08, "CA-HepPh": 0.05, "CA-HepTh": 0.08, "Caltech": 0.25}


def table2_tbi_triangles(
    config: ExperimentConfig,
    names: Sequence[str] = ("CA-GrQc", "CA-HepPh", "CA-HepTh", "Caltech"),
    base_scales: dict[str, float] | None = None,
    base_steps: int = 6000,
) -> list[tuple[str, int, int, int]]:
    """Triangles in the seed graph, after TbI-driven MCMC, and in the truth.

    Returns rows ``(graph, seed Δ, MCMC Δ, true Δ)`` — the three rows of
    Table 2.
    """
    base_scales = base_scales or _TBI_BASE_SCALES
    rows: list[tuple[str, int, int, int]] = []
    for name in names:
        graph = load_paper_graph(name, scale=config.scaled_graph(base_scales[name]))
        result = run_tbi_synthesis(
            graph,
            name,
            steps=config.scaled_steps(base_steps),
            epsilon=config.epsilon,
            pow_=config.pow_,
            seed=config.seed,
        )
        rows.append((name, result.seed_triangles, result.final_triangles, result.true_triangles))
    return rows


def figure4_tbi_fitting(
    config: ExperimentConfig,
    names: Sequence[str] = ("CA-GrQc", "CA-HepPh", "CA-HepTh", "Caltech"),
    base_scales: dict[str, float] | None = None,
    base_steps: int = 4000,
) -> list[TrajectoryResult]:
    """TbI-driven MCMC trajectories for real graphs and their random twins."""
    base_scales = base_scales or _TBI_BASE_SCALES
    results: list[TrajectoryResult] = []
    for name in names:
        scale = config.scaled_graph(base_scales[name])
        graph, twin = paper_graph_with_twin(name, scale=scale)
        for label, candidate in ((name, graph), (f"Random({name})", twin)):
            results.append(
                run_tbi_synthesis(
                    candidate,
                    label,
                    steps=config.scaled_steps(base_steps),
                    epsilon=config.epsilon,
                    pow_=config.pow_,
                    seed=config.seed,
                )
            )
    return results


# ----------------------------------------------------------------------
# Figure 5: sensitivity to epsilon
# ----------------------------------------------------------------------
def figure5_epsilon_sensitivity(
    config: ExperimentConfig,
    epsilons: Sequence[float] = (0.01, 0.1, 1.0, 10.0),
    repeats: int = 3,
    base_scale: float = 0.08,
    base_steps: int = 3000,
) -> list[tuple[float, float, float, float]]:
    """Final triangle counts of TbI-driven synthesis across ε values.

    Returns rows ``(epsilon, mean Δ, std Δ, true Δ)`` for the CA-GrQc
    stand-in.
    """
    scale = config.scaled_graph(base_scale)
    steps = config.scaled_steps(base_steps)
    graph = load_paper_graph("CA-GrQc", scale=scale)
    truth = triangle_count(graph)
    rows: list[tuple[float, float, float, float]] = []
    for epsilon in epsilons:
        finals = []
        for repeat in range(repeats):
            result = run_tbi_synthesis(
                graph,
                f"eps={epsilon}",
                steps=steps,
                epsilon=epsilon,
                pow_=config.pow_,
                seed=config.seed + repeat,
            )
            finals.append(result.final_triangles)
        rows.append((float(epsilon), float(np.mean(finals)), float(np.std(finals)), float(truth)))
    return rows


# ----------------------------------------------------------------------
# Table 3 and Figure 6: Barabási–Albert scalability sweep
# ----------------------------------------------------------------------
def table3_barabasi(
    config: ExperimentConfig,
    nodes: int = 2500,
    edges_per_node: int = 8,
    betas: Sequence[float] = (0.5, 0.55, 0.6, 0.65, 0.7),
) -> list[tuple[float, int, int, int, int, int]]:
    """Statistics of the Barabási–Albert graphs used for the scaling study.

    Returns rows ``(beta, nodes, edges, dmax, triangles, Σd²)``.
    """
    nodes = max(200, int(round(nodes * config.graph_scale)))
    rows: list[tuple[float, int, int, int, int, int]] = []
    for index, beta in enumerate(betas):
        graph = barabasi_albert(nodes, edges_per_node, beta=beta, rng=config.seed + index)
        stats = summarize(graph)
        rows.append(
            (
                float(beta),
                int(stats["nodes"]),
                int(stats["edges"]),
                int(stats["dmax"]),
                int(stats["triangles"]),
                int(stats["degree_sum_of_squares"]),
            )
        )
    return rows


def figure6_scalability(
    config: ExperimentConfig,
    nodes: int = 1500,
    edges_per_node: int = 6,
    betas: Sequence[float] = (0.5, 0.6, 0.7),
    base_steps: int = 400,
    epinions_scale: float = 0.02,
) -> list[dict[str, float]]:
    """Memory and throughput of TbI-driven MCMC as Σd² grows.

    For each Barabási–Albert graph and the Epinions stand-in a
    TbI synthesiser is built and run for a few hundred steps while tracking

    * ``state_entries`` — weighted entries held by the incremental operators
      (the platform-independent memory proxy),
    * ``peak_memory_mb`` — tracemalloc peak during construction + run,
    * ``steps_per_second`` — MCMC throughput.
    """
    nodes = max(200, int(round(nodes * config.graph_scale)))
    steps = config.scaled_steps(base_steps)
    workloads: list[tuple[str, Graph]] = []
    for index, beta in enumerate(betas):
        workloads.append(
            (
                f"barabasi(beta={beta})",
                barabasi_albert(nodes, edges_per_node, beta=beta, rng=config.seed + index),
            )
        )
    workloads.append(
        ("Epinions", load_paper_graph("Epinions", scale=config.scaled_graph(epinions_scale)))
    )

    results: list[dict[str, float]] = []
    for label, graph in workloads:
        session = PrivacySession(seed=config.seed)
        edges = protect_graph(session, graph)
        measurement = triangles_by_intersect_query(edges).noisy_count(
            config.epsilon, query_name="tbi"
        )
        tracemalloc.start()
        started = time.perf_counter()
        synthesizer = GraphSynthesizer(
            [measurement],
            random_twin(graph, rng=config.seed),
            pow_=config.pow_,
            rng=config.seed,
        )
        build_seconds = time.perf_counter() - started
        run_result = synthesizer.run(steps)
        _, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        results.append(
            {
                "label": label,
                "nodes": float(graph.number_of_nodes()),
                "edges": float(graph.number_of_edges()),
                "degree_sum_of_squares": float(graph.degree_sum_of_squares()),
                "state_entries": float(synthesizer.state_entry_count()),
                "peak_memory_mb": peak_bytes / 1e6,
                "build_seconds": build_seconds,
                "steps_per_second": run_result.steps_per_second,
            }
        )
    return results


# ----------------------------------------------------------------------
# Ablations: bespoke baselines vs wPINQ queries
# ----------------------------------------------------------------------
def jdd_accuracy_ablation(
    config: ExperimentConfig,
    base_scale: float = 0.1,
    epsilon: float | None = None,
) -> list[tuple[str, float]]:
    """Mean absolute JDD error: Sala et al. versus the wPINQ JDD query.

    Returns rows ``(approach, mean |error| per occupied degree pair)``.
    """
    epsilon = epsilon if epsilon is not None else config.epsilon
    graph = load_paper_graph("CA-GrQc", scale=config.scaled_graph(base_scale))
    noise = LaplaceNoise(config.seed)

    sala = sala_joint_degree_distribution(graph, epsilon, noise=noise)
    sala_error = jdd_error(sala, graph)

    session = PrivacySession(seed=config.seed)
    edges = protect_graph(session, graph)
    # Match total privacy cost: the wPINQ query uses the edge set four times,
    # so measure it at epsilon/4 to spend the same budget as the baseline.
    measurement = measure_joint_degrees(edges, epsilon / 4.0)
    rescaled = rescale_jdd_measurement(measurement)
    wpinq_estimate: dict[tuple[int, int], float] = {}
    for (da, db), value in rescaled.items():
        key = (min(da, db), max(da, db))
        # The wPINQ query sees each undirected edge twice (both directions);
        # average the two directed estimates onto the undirected cell.
        wpinq_estimate[key] = wpinq_estimate.get(key, 0.0) + value / 2.0
    wpinq_error = jdd_error(wpinq_estimate, graph)

    return [
        ("Sala et al. (corrected, bespoke noise)", float(sala_error)),
        ("wPINQ JDD query (automatic)", float(wpinq_error)),
    ]


def combined_measurements_ablation(
    config: ExperimentConfig,
    base_scale: float = 0.06,
    base_steps: int = 3000,
) -> list[tuple[str, int, int, int]]:
    """Fitting several measurements at once (Section 1.2, benefit #2).

    Returns rows ``(configuration, seed Δ, final Δ, true Δ)`` for the TbI-only
    and TbI + JDD fits of the CA-GrQc stand-in.
    """
    graph = load_paper_graph("CA-GrQc", scale=config.scaled_graph(base_scale))
    steps = config.scaled_steps(base_steps)
    truth = triangle_count(graph)
    rows: list[tuple[str, int, int, int]] = []

    from ..analyses import joint_degree_query

    for label, include_jdd in (("TbI only", False), ("TbI + JDD", True)):
        session = PrivacySession(seed=config.seed)
        edges = protect_graph(session, graph)
        fit_queries = [
            (triangles_by_intersect_query(edges), config.epsilon, "triangles_by_intersect")
        ]
        if include_jdd:
            fit_queries.append((joint_degree_query(edges), config.epsilon, "joint_degree"))
        outcome = synthesize_graph(
            session,
            edges,
            fit_queries=fit_queries,
            seed_epsilon=config.epsilon,
            mcmc_steps=steps,
            pow_=config.pow_,
            rng=config.seed + 1,
        )
        rows.append((label, outcome.seed_triangles, outcome.synthetic_triangles, truth))
    return rows


def degree_sequence_ablation(
    config: ExperimentConfig,
    base_scale: float = 0.1,
    epsilon: float | None = None,
) -> list[tuple[str, float]]:
    """Degree-sequence error: Hay et al. versus wPINQ CCDF+sequence path fit.

    Returns rows ``(approach, mean |error| per rank)``.
    """
    epsilon = epsilon if epsilon is not None else config.epsilon
    graph = load_paper_graph("CA-GrQc", scale=config.scaled_graph(base_scale))
    noise = LaplaceNoise(config.seed)

    hay = hay_degree_sequence(graph, epsilon, noise=noise)
    hay_error = degree_sequence_error(hay, graph)

    session = PrivacySession(seed=config.seed)
    edges = protect_graph(session, graph)
    # Spend the same total budget, split across the two wPINQ measurements.
    from ..analyses import measure_degree_ccdf, measure_degree_sequence

    ccdf = measure_degree_ccdf(edges, epsilon / 2.0)
    sequence = measure_degree_sequence(edges, epsilon / 2.0)
    true_sequence = degree_sequence(graph)
    fitted = fit_degree_sequence(
        sequence,
        ccdf,
        max_rank=graph.number_of_nodes() + 10,
        max_degree=graph.max_degree() + 10,
    )
    wpinq_error = degree_sequence_error([float(v) for v in fitted], graph)

    # A third row isolates the benefit of the joint fit over isotonic
    # regression applied to the wPINQ degree-sequence measurement alone.
    seq_only = [sequence.value(rank) for rank in range(len(true_sequence))]
    iso_only = isotonic_regression(seq_only, increasing=False)
    iso_error = degree_sequence_error(iso_only, graph)

    return [
        ("Hay et al. (public n, isotonic)", float(hay_error)),
        ("wPINQ sequence only + isotonic", float(iso_error)),
        ("wPINQ CCDF + sequence path fit", float(wpinq_error)),
    ]


def smooth_sensitivity_ablation(
    nodes: int = 400,
    epsilon: float = 0.5,
    delta: float = 0.01,
    trials: int = 25,
    seed: int = 1,
) -> list[tuple[str, str, float, float, float]]:
    """Worst-case vs smooth-sensitivity vs weighted triangle counting.

    Each mechanism targets the statistic it can actually release — the raw
    triangle count for the worst-case and smooth mechanisms, the weighted
    triangle total (Σ_Δ 1/max degree) for the weighted mechanism — so the
    comparable column is the *relative* error on that target.  Returns rows
    ``(graph, mechanism, target value, noise scale, mean relative error)``.
    """
    from ..baselines import (
        figure1_union_graph,
        smooth_sensitivity_triangle_count,
        weighted_triangle_signal,
    )

    noise = LaplaceNoise(seed)
    graphs = {
        "worst-case (left)": figure1_worst_case_graph(nodes),
        "best-case (right)": figure1_best_case_graph(nodes),
        "union (left + right)": figure1_union_graph(nodes),
    }
    rows: list[tuple[str, str, float, float, float]] = []
    for graph_name, graph in graphs.items():
        true_count = float(triangle_count(graph))
        weighted_target = weighted_triangle_signal(graph)
        for mechanism in ("worst-case noise", "smooth sensitivity", "weighted records"):
            errors = []
            scale = 0.0
            if mechanism == "weighted records":
                target = weighted_target
            else:
                target = true_count
            for _ in range(trials):
                if mechanism == "worst-case noise":
                    scale = max(graph.number_of_nodes() - 2, 1) / epsilon
                    released = worst_case_triangle_count(graph, epsilon, noise=noise)
                elif mechanism == "smooth sensitivity":
                    released, scale = smooth_sensitivity_triangle_count(
                        graph, epsilon, delta=delta, noise=noise
                    )
                else:
                    scale = 1.0 / epsilon
                    released = weighted_target + noise.sample(epsilon)
                errors.append(abs(released - target))
            denominator = max(target, 1.0)
            rows.append(
                (
                    graph_name,
                    mechanism,
                    float(target),
                    float(scale),
                    float(np.mean(errors) / denominator),
                )
            )
    return rows
