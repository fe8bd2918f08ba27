"""The paper's evaluation as one table: one :class:`Experiment` per table,
figure or ablation, read by ``repro <experiment>`` and by the paper suite
(``benchmarks/test_paper.py``), so both run the same parametrisation.

``claims(result, config)`` returns the text of every paper claim the result
breaks (empty: the experiment reproduces); its docstring is the claim.  The
graphs are scaled-down synthetic stand-ins, so a claim is about shape, not
absolute numbers; the numbers behind a failed claim are in the rendered table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from ..graph import PAPER_REPORTED_STATISTICS
from .config import ExperimentConfig
from .report import format_series, format_table
from .workflows import (
    TrajectoryResult,
    combined_measurements_ablation,
    degree_sequence_ablation,
    figure1_comparison,
    figure3_tbd_bucketing,
    figure4_tbi_fitting,
    figure5_epsilon_sensitivity,
    figure6_scalability,
    jdd_accuracy_ablation,
    smooth_sensitivity_ablation,
    table1_graph_statistics,
    table2_tbi_triangles,
    table3_barabasi,
)

__all__ = ["Experiment", "EXPERIMENTS"]


@dataclass(frozen=True)
class Experiment:
    """One experiment of the paper's evaluation."""

    name: str
    description: str
    run: Callable[[ExperimentConfig], Any]
    render: Callable[[Any], str]
    claims: Callable[[Any, ExperimentConfig], list[str]]


#: Experiment name -> record, in the paper's order.
EXPERIMENTS: dict[str, Experiment] = {}


def _experiment(name: str, description: str, run: Callable, render: Callable) -> Callable:
    """Register the decorated claims function as experiment ``name``."""

    def register(claims: Callable) -> Callable:
        EXPERIMENTS[name] = Experiment(name, description, run, render, claims)
        return claims

    return register


def _failed(*checks: tuple[str, bool]) -> list[str]:
    return [claim for claim, holds in checks if not holds]


def _table(title: str, *headers: str) -> Callable[[list], str]:
    return lambda rows: format_table(headers, rows, title=title)


def _with_series(table: Callable[[list], str], columns: Callable) -> Callable:
    """A table of MCMC runs (one row of ``columns`` each), then each run's
    triangles-per-step series."""

    def render(results: list[TrajectoryResult]) -> str:
        series = [format_series(f"{r.label}: triangles vs MCMC step", zip(r.steps, r.triangles))
                  for r in results]
        return "\n\n".join([table([columns(r) for r in results]), *series])

    return render


def _costs(result: TrajectoryResult, times: int, config: ExperimentConfig) -> tuple[str, bool]:
    return (f"{result.label}: the run costs {times} epsilon ({result.privacy_cost})",
            math.isclose(result.privacy_cost, times * config.epsilon, rel_tol=1e-6, abs_tol=1e-12))


@_experiment(
    "figure1", "worst-case vs weighted triangle counting",
    lambda config: figure1_comparison(nodes=max(100, int(400 * config.graph_scale)),
                                      epsilon=config.epsilon, trials=25, seed=config.seed),
    _table("Figure 1 — triangle counting, worst-case noise vs weighted records",
           "graph", "mechanism", "true triangles", "mean estimate", "mean |error|"),
)
def _figure1(rows: list[tuple], config: ExperimentConfig) -> list[str]:
    """Paper claim (Section 1.1): counting triangles with worst-case-sensitivity
    noise adds error proportional to |V| regardless of the graph, while weighting
    each triangle by 1/max degree measures the bounded-degree graph (Figure 1,
    right) with constant noise.  Neither mechanism helps on the adversarial graph
    (Figure 1, left) — and does not need to, since it has no triangles.
    """
    error = {(graph, mechanism): value for graph, mechanism, _, _, value in rows}
    best, worst = "best-case (right)", "worst-case (left)"
    return _failed(
        ("best case: weighted records' error < worst-case noise's / 5",
         error[best, "weighted records"] < error[best, "worst-case noise"] / 5.0),
        ("worst-case noise: its error on the best case > on the worst case / 10",
         error[best, "worst-case noise"] > error[worst, "worst-case noise"] / 10.0),
    )


def _render_table1(rows: list[tuple]) -> str:
    headers = ("graph", "nodes", "edges", "dmax", "triangles", "assortativity r")
    paper = [(name, s["nodes"], s["edges"], s["dmax"], s["triangles"], s["assortativity"])
             for name, s in PAPER_REPORTED_STATISTICS.items()]
    stand_in = "Table 1 — stand-in graph statistics (scaled-down synthetic substitutes)"
    reported = "Table 1 — values reported in the paper (full-size real datasets)"
    return "\n\n".join([format_table(headers, rows, title=stand_in),
                        format_table(headers, paper, title=reported)])


@_experiment("table1", "evaluation graph statistics", table1_graph_statistics, _render_table1)
def _table1(rows: list[tuple], config: ExperimentConfig) -> list[str]:
    """Paper claim: the real graphs have many more triangles (and, for the
    collaboration networks, strongly positive assortativity) than their
    degree-preserving randomisations, which is exactly the structure the MCMC
    experiments later try to recover.  Absolute numbers differ because the
    graphs here are scaled-down synthetic stand-ins (``repro.graph.datasets``).
    """
    stats = {row[0]: row for row in rows}
    checks = []
    for name in ("CA-GrQc", "CA-HepPh", "CA-HepTh", "Caltech", "Epinions"):
        real, random = stats[name], stats[f"Random({name})"]
        checks += [(f"{name}: its twin has the same nodes, edges and dmax", real[1:4] == random[1:4]),
                   (f"{name}: more triangles than its twin", real[4] > random[4])]
    for name in ("CA-GrQc", "CA-HepPh", "CA-HepTh"):
        checks += [(f"{name}: assortativity > 0.1", stats[name][5] > 0.1),
                   (f"Random({name}): |assortativity| < 0.15", abs(stats[f"Random({name})"][5]) < 0.15)]
    return _failed(
        *checks,
        ("Caltech: |assortativity| < 0.2", abs(stats["Caltech"][5]) < 0.2),
        ("Epinions: |assortativity| < 0.2", abs(stats["Epinions"][5]) < 0.2),
    )


@_experiment(
    "figure3", "TbD-driven MCMC with/without bucketing",
    figure3_tbd_bucketing,
    _with_series(
        _table("Figure 3 — TbD-driven MCMC on CA-GrQc vs Random(GrQc), with/without bucketing",
               "configuration", "true triangles", "true r", "seed triangles", "final triangles",
               "final r", "privacy cost (eps)"),
        lambda r: (r.label, r.true_triangles, r.true_assortativity, r.seed_triangles,
                   r.final_triangles, r.final_assortativity, r.privacy_cost),
    ),
)
def _figure3(results: list[TrajectoryResult], config: ExperimentConfig) -> list[str]:
    """Paper claim (Section 5.2): the un-bucketed TbD measurement is dominated
    by noise, so MCMC barely distinguishes CA-GrQc from its randomised twin;
    grouping degrees into buckets concentrates the signal and lets the chain
    fitting the real graph pull ahead — though it still falls well short of the
    true triangle count.

    The paper's own conclusion is that even bucketed TbD is noise-dominated
    away from the lowest-degree bucket, so at this scale the separation is weak:
    the real-vs-random claim allows the stochastic near-ties that weakness
    produces while still failing if the random twin clearly pulls ahead.
    """
    by_label = {result.label: result for result in results}
    real, plain = by_label["CA-GrQc + buckets"], by_label["CA-GrQc"]
    random = by_label["Random(GrQc) + buckets"]
    return _failed(
        *(_costs(result, 12, config) for result in results),
        ("bucketed: the real fit's final triangles >= 0.7 x the random fit's",
         real.final_triangles >= 0.7 * random.final_triangles),
        ("bucketed: the real fit undershoots the true triangle count",
         real.final_triangles < real.true_triangles),
        ("un-bucketed real fit's final triangles <= 1.5 x the bucketed one's + 50",
         plain.final_triangles <= real.final_triangles * 1.5 + 50),
    )


@_experiment(
    "table2", "triangles: seed / after TbI MCMC / truth",
    table2_tbi_triangles,
    _table("Table 2 — triangle counts: seed graph, after TbI-driven MCMC, truth",
           "graph", "seed triangles", "after TbI MCMC", "true triangles"),
)
def _table2(rows: list[tuple], config: ExperimentConfig) -> list[str]:
    """Paper claim (Section 5.3): seeding from the DP degree sequence gives a
    graph with roughly the random twin's triangle count; fitting the TbI
    measurement moves the synthetic graph a substantial fraction of the way to
    the real graph's triangle count, for all four evaluation graphs.
    """
    checks = []
    for name, seed, mcmc, truth in rows:
        gap = truth - seed
        recovered = (mcmc - seed) / gap if gap > 0 else math.nan
        checks += [
            (f"{name}: MCMC adds triangles to the seed", mcmc > seed),
            (f"{name}: MCMC's triangles <= 1.6 x the truth", mcmc <= truth * 1.6),
            (f"{name}: the truth has more triangles than the seed", gap > 0),
            (f"{name}: MCMC recovers > 5% of the seed-to-truth gap ({recovered:.1%})", recovered > 0.05),
        ]
    return _failed(*checks)


@_experiment(
    "figure4", "TbI-driven MCMC trajectories, real vs random",
    figure4_tbi_fitting,
    _with_series(
        _table("Figure 4 — TbI-driven MCMC, real stand-ins vs Random(.) twins",
               "configuration", "true triangles", "seed triangles", "final triangles", "steps/sec"),
        lambda r: (r.label, r.true_triangles, r.seed_triangles, r.final_triangles, r.steps_per_second),
    ),
)
def _figure4(results: list[TrajectoryResult], config: ExperimentConfig) -> list[str]:
    """Paper claim (Section 5.3): the chains fitting real graphs climb to many
    more triangles than the chains fitting degree-preserving random twins —
    MCMC only introduces triangles when the released measurement calls for them.
    """
    by_label = {result.label: result for result in results}
    checks = []
    for name in ("CA-GrQc", "CA-HepPh", "CA-HepTh", "Caltech"):
        real, random = by_label[name], by_label[f"Random({name})"]
        real_gain = real.final_triangles - real.seed_triangles
        random_gain = random.final_triangles - random.seed_triangles
        checks += [
            _costs(real, 7, config),
            (f"{name}: the real chain's gain {real_gain} > max(2 x the random one's {random_gain}, 10)",
             real_gain > max(2.0 * random_gain, 10)),
            (f"{name}: the real trajectory ends at or above where it starts",
             real.triangles[-1] >= real.triangles[0]),
        ]
    return _failed(*checks)


@_experiment(
    "figure5", "sensitivity of TbI synthesis to epsilon",
    figure5_epsilon_sensitivity,
    _table("Figure 5 — TbI synthesis across epsilon (CA-GrQc stand-in, 3 runs each)",
           "epsilon", "mean final triangles", "std final triangles", "true triangles"),
)
def _figure5(rows: list[tuple], config: ExperimentConfig) -> list[str]:
    """Paper claim (Section 5.3): across ε ∈ {0.01, 0.1, 1, 10} the attained
    triangle count stays roughly flat, because the TbI signal of the real graph
    is large enough to dominate the noise at every tested ε; variability grows
    as ε shrinks.
    """
    means = [mean for _, mean, _, _ in rows]
    truth = rows[0][3]
    return _failed(
        ("every epsilon's mean final triangles > 0", all(mean > 0 for mean in means)),
        ("the largest mean <= 3.5 x max(the smallest mean, 1)", max(means) <= 3.5 * max(min(means), 1.0)),
        ("every mean <= 1.6 x the truth", all(mean <= truth * 1.6 for mean in means)),
    )


@_experiment(
    "table3", "Barabasi-Albert graphs for the scaling study",
    table3_barabasi,
    _table("Table 3 — Barabasi-Albert graphs with increasing dynamical exponent",
           "beta", "nodes", "edges", "dmax", "triangles", "sum d^2"),
)
def _table3(rows: list[tuple], config: ExperimentConfig) -> list[str]:
    """Paper claim: increasing the dynamical exponent β (with nodes and edges
    fixed) raises the maximum degree, the triangle count and Σ d² — the quantity
    that drives the incremental engine's memory and per-step cost in Figure 6.
    """
    first, last = rows[0], rows[-1]
    edges = [row[2] for row in rows]
    return _failed(
        ("nodes are the same for every beta", len({row[1] for row in rows}) == 1),
        ("edges vary by at most 2% across beta", max(edges) - min(edges) <= first[2] * 0.02),
        ("dmax grows from the first beta to the last", last[3] > first[3]),
        ("sum d^2 grows from the first beta to the last", last[5] > first[5]),
        ("triangles do not fall from the first beta to the last", last[4] >= first[4]),
    )


@_experiment(
    "figure6", "memory and throughput vs sum of squared degrees",
    figure6_scalability,
    lambda results: format_table(
        ["workload", "nodes", "edges", "sum d^2", "state entries", "peak MB", "build s", "MCMC steps/s"],
        [(r["label"], int(r["nodes"]), int(r["edges"]), int(r["degree_sum_of_squares"]),
          int(r["state_entries"]), r["peak_memory_mb"], r["build_seconds"], r["steps_per_second"])
         for r in results],
        title="Figure 6 — incremental TbI engine: memory and throughput vs sum of squared degrees",
    ),
)
def _figure6(results: list[dict[str, float]], config: ExperimentConfig) -> list[str]:
    """Paper claim (Section 5.3): the memory needed by TbI-driven MCMC grows with
    Σ d² (the number of candidate length-two paths the engine must index), and
    the achievable MCMC steps/second falls correspondingly; Epinions, with the
    largest Σ d² relative to its edge count, is the most demanding workload.

    ``state_entries`` (weighted records held by operator state) is the
    platform-independent memory proxy; throughput compares the endpoints, with
    a small tolerance for timing jitter.
    """
    barabasi = [r for r in results if r["label"].startswith("barabasi")]
    ordered = sorted(barabasi, key=lambda r: r["degree_sum_of_squares"])
    low, high = ordered[0], ordered[-1]
    ratio_state = high["state_entries"] / low["state_entries"]
    ratio_d2 = high["degree_sum_of_squares"] / low["degree_sum_of_squares"]
    return _failed(
        ("at least two Barabasi-Albert workloads", len(barabasi) >= 2),
        ("state entries grow with sum d^2", high["state_entries"] > low["state_entries"]),
        ("steps/s at the largest sum d^2 < 1.05 x at the smallest",
         high["steps_per_second"] < low["steps_per_second"] * 1.05),
        (f"state ratio {ratio_state:.2f} > 1 + 0.25 x (sum d^2 ratio {ratio_d2:.2f} - 1)",
         ratio_state > 1.0 + 0.25 * (ratio_d2 - 1.0)),
    )


@_experiment(
    "jdd-ablation", "wPINQ JDD query vs Sala et al.",
    lambda config: jdd_accuracy_ablation(config, epsilon=max(config.epsilon, 0.5)),
    _table("Section 3.2 ablation — JDD accuracy at equal total privacy cost",
           "approach", "mean |error| per occupied degree pair"),
)
def _jdd_ablation(rows: list[tuple], config: ExperimentConfig) -> list[str]:
    """Paper claim (Section 3.2): the automatic wPINQ joint-degree-distribution
    query pays a constant factor (between two and four) in accuracy compared to
    Sala et al.'s bespoke mechanism, in exchange for an automatic privacy proof.
    The claim allows roughly an order of magnitude.
    """
    errors = dict(rows)
    sala = errors["Sala et al. (corrected, bespoke noise)"]
    wpinq = errors["wPINQ JDD query (automatic)"]
    return _failed(
        ("Sala et al.'s error < wPINQ's", sala < wpinq),
        ("wPINQ's error < 12 x Sala et al.'s", wpinq < 12 * sala),
    )


@_experiment(
    "degree-ablation", "degree-sequence post-processing comparison",
    lambda config: degree_sequence_ablation(config, epsilon=max(config.epsilon, 0.2)),
    _table("Section 3.1 ablation — degree sequence accuracy at equal total privacy cost",
           "approach", "mean |error| per rank"),
)
def _degree_ablation(rows: list[tuple], config: ExperimentConfig) -> list[str]:
    """Paper claim (Section 3.1): measuring both the degree sequence and its CCDF
    through wPINQ and jointly fitting a monotone staircase to the two noisy views
    is competitive with (typically better than) isotonic regression on a single
    noisy sequence — and, unlike Hay et al., does not require the number of
    nodes to be public.
    """
    errors = dict(rows)
    joint = errors["wPINQ CCDF + sequence path fit"]
    return _failed(
        ("the joint fit's error <= 1.1 x isotonic on the wPINQ sequence alone",
         joint <= errors["wPINQ sequence only + isotonic"] * 1.1),
        ("the joint fit's error <= 1.5 x Hay et al.'s (public n)",
         joint <= errors["Hay et al. (public n, isotonic)"] * 1.5),
    )


@_experiment(
    "smooth-ablation", "smooth sensitivity vs weighted records (Section 1.1)",
    lambda config: smooth_sensitivity_ablation(nodes=max(200, int(400 * config.graph_scale)),
                                               epsilon=0.5, delta=0.01, trials=25, seed=config.seed),
    _table("Ablation — worst-case vs smooth sensitivity vs weighted records (Section 1.1)",
           "graph", "mechanism", "target value", "noise scale", "mean relative error"),
)
def _smooth_ablation(rows: list[tuple], config: ExperimentConfig) -> list[str]:
    """Paper claim (Section 1.1): smooth sensitivity adapts the noise to the
    instance, so it beats worst-case noise on the benign bounded-degree graph —
    but if the worst-case structure appears anywhere (the union of Figure 1's two
    graphs) it must still add Θ(|V|)-scale noise, whereas weighted records
    suppress only the troublesome half and keep constant noise on the rest.
    """
    scale = {(graph, mechanism): value for graph, mechanism, _, value, _ in rows}
    error = {(graph, mechanism): value for graph, mechanism, _, _, value in rows}
    best, union = "best-case (right)", "union (left + right)"
    return _failed(
        ("best case: smooth sensitivity's noise scale < worst-case noise's / 3",
         scale[best, "smooth sensitivity"] < scale[best, "worst-case noise"] / 3.0),
        ("union: smooth sensitivity's noise scale > worst-case noise's / 3",
         scale[union, "smooth sensitivity"] > scale[union, "worst-case noise"] / 3.0),
        ("union: weighted records' relative error < smooth sensitivity's / 5",
         error[union, "weighted records"] < error[union, "smooth sensitivity"] / 5.0),
        ("best case: weighted records' relative error < 0.5", error[best, "weighted records"] < 0.5),
    )


@_experiment(
    "combined-ablation", "fitting TbI together with the JDD (Section 1.2)",
    combined_measurements_ablation,
    _table("Section 1.2 ablation — fitting TbI alone vs TbI + JDD simultaneously",
           "configuration", "seed triangles", "final triangles", "true triangles"),
)
def _combined_ablation(rows: list[tuple], config: ExperimentConfig) -> list[str]:
    """Paper claim (Section 1.2, benefit #2): probabilistic inference integrates
    every released measurement into one posterior, so fitting a synthetic graph
    to the TbI statistic *and* the joint degree distribution simultaneously
    produces a graph that still respects the triangle structure while
    additionally matching second-order degree correlations — constraints
    reinforce rather than interfere.
    """
    by_label = {label: (seed, final, truth) for label, seed, final, truth in rows}
    tbi_seed, tbi_final, truth = by_label["TbI only"]
    both_seed, both_final, _ = by_label["TbI + JDD"]
    return _failed(
        ("TbI only: final triangles > seed triangles", tbi_final > tbi_seed),
        ("TbI + JDD: final triangles > seed triangles", both_final > both_seed),
        ("TbI + JDD keeps at least a third of TbI only's gain",
         (both_final - both_seed) >= (tbi_final - tbi_seed) / 3.0),
        ("neither final count exceeds 1.6 x the truth", max(tbi_final, both_final) <= truth * 1.6),
    )
