"""Phase 2 of the workflow: fitting a synthetic graph to wPINQ measurements.

:class:`GraphSynthesizer` wires together everything Section 4 and 5 describe:

1. the released measurements (each a :class:`NoisyCountResult` carrying its
   query plan and ε) are compiled into one incremental
   :class:`~repro.dataflow.engine.DataflowEngine`;
2. the engine is initialised with a public *seed* graph (typically produced by
   :mod:`repro.inference.seed` so it already matches the DP degree sequence);
3. an edge-swap random walk proposes degree-preserving changes, the engine
   updates ``Q(synthetic)`` incrementally, and Metropolis–Hastings commits or
   rolls back each proposal according to
   ``exp(−pow · Σ_i ε_i ‖Q_i(A) − m_i‖₁)``.

Each proposal is scored one way on every backend: ``engine.begin()``, one
``push`` of the swap's delta, ``tracker.log_score()``, then ``commit()`` or
``rollback()``.  The backends differ only in how the engine holds ``Q(A)``.

The protected graph is never consulted here: everything is driven by the
released noisy measurements, which is the whole point of the workflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from ..core.aggregation import NoisyCountResult
from ..core.dataset import WeightedDataset
from ..core.executor import DataflowExecutor
from ..core.queryable import PrivacySession, Queryable
from ..graph.graph import Graph
from ..graph import statistics as graph_statistics
from .mcmc import IncrementalMetropolisHastings, MCMCResult
from .random_walks import EdgeSwapWalk
from .scoring import ScoreTracker
from .seed import DegreeSequenceMeasurements, seed_graph_from_edges

__all__ = ["GraphSynthesizer", "SCORING_BACKENDS", "SynthesisOutcome", "synthesize_graph"]

#: Default sharpening exponent used in the paper's experiments.
DEFAULT_POW = 10_000.0

#: MCMC scoring backend name -> the class in
#: :mod:`repro.inference.columnar_scoring` that plays both engine and tracker
#: for it (``None``: the dict-based dataflow engine with a ``ScoreTracker``).
#: The one list of names ``GraphSynthesizer`` and ``repro synth --backend``
#: go by.
SCORING_BACKENDS: dict[str, str | None] = {
    "dataflow": None,
    "vectorized": "ColumnarScoreEngine",
    "incremental": "IncrementalColumnarScoreEngine",
}

#: The backend ``GraphSynthesizer``, ``synthesize_graph``, ``run_chains`` and
#: ``repro synth`` use unless told otherwise: the fastest in both MCMC regimes.
DEFAULT_BACKEND = "dataflow"


class GraphSynthesizer:
    """Fit a synthetic graph to released wPINQ measurements with MCMC.

    ``backend`` selects how proposals are re-scored:

    * ``"dataflow"`` (default) — the incremental engine of Section 4.3:
      ``Q(A)`` stays materialised per operator and each step costs
      O(changed intermediate data), all in dict-based Python.  A rejected
      proposal is undone from the engine's undo log — the cells the push
      overwrote are put back — instead of by a second propagation, so a step
      is one propagation whether it is accepted or not.  The fastest backend
      in both the accept-heavy and the reject-heavy regime.
    * ``"vectorized"`` — the full-pass columnar path of
      :mod:`repro.inference.columnar_scoring`: the synthetic edge set lives
      as an incrementally updated weight vector and each score re-runs the
      measurement plans through the NumPy kernels (no operator state, lower
      constants, full-pass asymptotics).
    * ``"incremental"`` — incremental *columnar* scoring
      (:class:`~repro.inference.columnar_scoring
      .IncrementalColumnarScoreEngine`): Section 4.3 asymptotics with array
      kernels and per-measurement cached bin vectors.  A reject pushes the
      negated delta, i.e. costs a second propagation.

    ``run(chains=N)`` hands the work to the multi-chain driver
    (:mod:`repro.inference.parallel`) and adopts the best-scoring chain.
    """

    def __init__(
        self,
        measurements: Iterable[NoisyCountResult],
        seed_graph: Graph,
        pow_: float = DEFAULT_POW,
        rng: np.random.Generator | int | None = None,
        source_name: str = "edges",
        backend: str = DEFAULT_BACKEND,
    ) -> None:
        self.measurements = list(measurements)
        if not self.measurements:
            raise ValueError("at least one measurement is required")
        self.graph = seed_graph.copy()
        self.source_name = source_name
        self.backend = backend
        self.pow_ = float(pow_)
        self._rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

        initial_records = WeightedDataset.from_records(
            self.graph.to_edge_records(symmetric=True)
        )
        if backend not in SCORING_BACKENDS:
            *names, last = map(repr, SCORING_BACKENDS)
            raise ValueError(
                f"unknown synthesis backend {backend!r}; "
                f"expected {', '.join(names)} or {last}"
            )
        engine_class = SCORING_BACKENDS[backend]
        if engine_class is None:
            # The synthetic graph is public, so the executor's environment is
            # the seed edge set; compiling all measurement plans into one warm
            # engine shares every common sub-plan (and its operator state)
            # between them.  Kept private: once MCMC starts pushing deltas,
            # only `engine` reflects the current synthetic graph — a later
            # compile() through the executor would rebuild from seed records.
            self._executor = DataflowExecutor({source_name: initial_records})
            self.engine = self._executor.compile(
                [measurement.plan for measurement in self.measurements]
            )
            self.tracker = ScoreTracker(self.engine, self.measurements, pow_=pow_)
        else:
            from . import columnar_scoring

            # One object plays engine (weight-vector deltas or incremental
            # columnar state) and tracker (re-scoring) on the columnar paths.
            self.engine = getattr(columnar_scoring, engine_class)(
                self.measurements, {source_name: initial_records}, pow_=pow_
            )
            self.tracker = self.engine
        self.walk = EdgeSwapWalk(self.graph, rng=self._rng)
        self.sampler = IncrementalMetropolisHastings(
            engine=self.engine,
            tracker=self.tracker,
            propose=self.walk.proposal_for_engine(source_name),
            rng=self._rng,
        )
        #: Per-chain results of the last ``run(chains=N)`` call (None before).
        self.last_parallel_result = None

    # ------------------------------------------------------------------
    @property
    def log_score(self) -> float:
        """Current log score of the synthetic graph."""
        return self.sampler.current_log_score

    def distances(self) -> dict[str, float]:
        """Per-measurement L1 distances for the current synthetic graph."""
        return self.tracker.distances()

    def triangle_count(self) -> int:
        """Exact triangle count of the current synthetic graph (public data)."""
        return graph_statistics.triangle_count(self.graph)

    def assortativity(self) -> float:
        """Exact assortativity of the current synthetic graph."""
        return graph_statistics.assortativity(self.graph)

    def state_entry_count(self) -> int:
        """Size of the engine's indexed state (the Figure 6 memory proxy)."""
        return self.engine.state_entry_count()

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """One MCMC proposal; True if accepted."""
        return self.sampler.step()

    def run(
        self,
        steps: int,
        record_every: int | None = None,
        metrics: dict[str, Callable[[], float]] | None = None,
        chains: int = 1,
        processes: int | None = None,
    ) -> MCMCResult:
        """Run ``steps`` proposals, recording graph metrics along the way.

        By default the trajectory records the synthetic graph's triangle count
        and assortativity — the two quantities Figures 3 and 4 plot — plus any
        additional metrics supplied by the caller.

        ``chains=N`` runs N independent chains from the current graph, one
        after the other, through :func:`repro.inference.parallel.run_chains`,
        adopts the best-scoring chain into this synthesizer, stores the full
        per-chain report on :attr:`last_parallel_result`, and returns the best
        chain's result.  ``processes=N`` moves those chains into worker processes
        (the one way to use more than one core); the winning chain comes
        back as a graph, from which a fresh synthesizer is rebuilt and
        adopted.
        """
        if chains > 1 or processes is not None:
            from .parallel import run_chains

            outcome = run_chains(
                self.measurements,
                self.graph,
                steps,
                chains=chains,
                pow_=self.pow_,
                backend=self.backend,
                rng=self._rng,
                source_name=self.source_name,
                record_every=record_every,
                metrics=metrics,
                processes=processes,
            )
            self.last_parallel_result = outcome
            best = outcome.best
            if best.synthesizer is not None:
                self._adopt(best.synthesizer)
            else:
                # Process chains return graphs, not live engines: rebuild a
                # synthesizer on the winning graph (scores recompute from the
                # same fixed measurement targets, so they match the worker's).
                self._adopt(
                    GraphSynthesizer(
                        self.measurements,
                        best.graph,
                        pow_=self.pow_,
                        rng=self._rng,
                        source_name=self.source_name,
                        backend=self.backend,
                    )
                )
            return best.result
        combined: dict[str, Callable[[], float]] = {
            "triangles": lambda: float(self.triangle_count()),
            "assortativity": self.assortativity,
        }
        if metrics:
            combined.update(metrics)
        return self.sampler.run(steps, record_every=record_every, metrics=combined)

    def _adopt(self, other: "GraphSynthesizer") -> None:
        """Take over another synthesizer's state (the winning chain's)."""
        self.graph = other.graph
        self.walk = other.walk
        self.engine = other.engine
        self.tracker = other.tracker
        self.sampler = other.sampler
        if hasattr(other, "_executor"):
            self._executor = other._executor


@dataclass
class SynthesisOutcome:
    """Everything the end-to-end workflow produces."""

    seed_graph: Graph
    synthetic_graph: Graph
    degree_measurements: DegreeSequenceMeasurements
    fit_measurements: list[NoisyCountResult]
    mcmc_result: MCMCResult
    privacy_cost: dict[str, float] = field(default_factory=dict)

    @property
    def seed_triangles(self) -> int:
        """Triangle count of the Phase-1 seed graph (the Table 2 "Seed" row)."""
        return graph_statistics.triangle_count(self.seed_graph)

    @property
    def synthetic_triangles(self) -> int:
        """Triangle count after MCMC (the Table 2 "MCMC" row)."""
        return graph_statistics.triangle_count(self.synthetic_graph)


def synthesize_graph(
    session: PrivacySession,
    edges: Queryable,
    fit_queries: Sequence[tuple[Queryable, float, str]],
    seed_epsilon: float,
    mcmc_steps: int,
    pow_: float = DEFAULT_POW,
    record_every: int | None = None,
    rng: np.random.Generator | int | None = None,
    backend: str = DEFAULT_BACKEND,
    chains: int = 1,
) -> SynthesisOutcome:
    """The full workflow of Section 5.1 in one call.

    Parameters
    ----------
    session, edges:
        The privacy session and the protected symmetric edge dataset.
    fit_queries:
        The Phase-2 queries as ``(queryable, epsilon, name)`` triples — e.g.
        the TbI query at ε = 0.1.  Each is measured once and then drives MCMC.
    seed_epsilon:
        ε used for *each* of the three Phase-1 degree measurements (so Phase 1
        costs ``3 × seed_epsilon``).
    mcmc_steps:
        Number of Metropolis–Hastings proposals in Phase 2.
    pow_:
        Score-sharpening exponent (the paper uses 10,000).
    record_every:
        Record the trajectory every this-many steps (None = only final state).
    backend:
        How MCMC proposals are re-scored: ``"dataflow"`` (incremental
        engine), ``"vectorized"`` (full-pass columnar kernels) or
        ``"incremental"`` (incremental columnar scoring); see
        :class:`GraphSynthesizer`.
    chains:
        Multi-chain synthesis, forwarded to :meth:`GraphSynthesizer.run`.
    """
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

    spent_before = {name: session.spent_budget(name) for name in edges.source_uses()}

    seed_graph, degree_measurements = seed_graph_from_edges(edges, seed_epsilon, rng=rng)

    # One batched measurement: budgets for every fit query are charged
    # atomically and sub-plans shared between the queries evaluate once.
    fit_measurements = list(
        session.measure(
            *[(queryable, epsilon, name) for queryable, epsilon, name in fit_queries]
        )
    )

    synthesizer = GraphSynthesizer(
        fit_measurements, seed_graph, pow_=pow_, rng=rng, backend=backend
    )
    result = synthesizer.run(mcmc_steps, record_every=record_every, chains=chains)

    privacy_cost = {
        name: session.spent_budget(name) - spent_before.get(name, 0.0)
        for name in edges.source_uses()
    }
    return SynthesisOutcome(
        seed_graph=seed_graph,
        synthetic_graph=synthesizer.graph,
        degree_measurements=degree_measurements,
        fit_measurements=fit_measurements,
        mcmc_result=result,
        privacy_cost=privacy_cost,
    )
