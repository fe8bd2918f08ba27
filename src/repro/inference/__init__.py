"""Probabilistic inference: MCMC synthesis of datasets from measurements.

Phase 2 of the paper's workflow fits a synthetic dataset to the released
noisy measurements with Metropolis–Hastings.  Three interchangeable scoring
backends drive the chain (selected via
``GraphSynthesizer(backend=...)`` / ``synthesize_graph(backend=...)``):

* ``"dataflow"`` — the dict-based incremental engine of Section 4.3: per-step
  cost proportional to the changed intermediate data, and a rejected step is
  restored from the engine's undo log rather than propagated a second time.
  The default, and the fastest backend in both MCMC regimes.
* ``"vectorized"`` — full-pass columnar scoring: every step re-runs the
  (deduplicated) measurement plans through the NumPy kernels over
  incrementally updated weight vectors.
* ``"incremental"`` — incremental columnar scoring: Section 4.3 asymptotics
  *and* array kernels.  Deltas propagate as code/weight arrays through the
  stateful operator DAG of :mod:`repro.columnar.incremental`, per-measurement
  bin vectors keep ``‖Q(A) − m‖₁`` maintained in O(touched bins).

Every backend runs the same step: ``engine.begin()``, one ``push`` per
source, ``tracker.log_score()``, then ``commit()`` or ``rollback()``.

``GraphSynthesizer.run(chains=N)`` (or :func:`repro.inference.parallel
.run_chains`) runs N independent chains with spawned RNG streams — in turn,
or in ``processes=N`` worker processes — and adopts the best-scoring graph.
"""

from .mcmc import (
    IncrementalMetropolisHastings,
    MCMCResult,
    MCMCStepRecord,
    MetropolisHastings,
)
from .parallel import ChainOutcome, ParallelSynthesisResult, run_chains
from .random_walks import EdgeSwapWalk, RecordReplacementWalk, edge_swap_delta
from .scoring import MeasurementScore, ScoreTracker
from .seed import (
    DegreeSequenceMeasurements,
    SEED_EDGE_USES,
    build_seed_graph,
    measure_degree_statistics,
    seed_graph_from_edges,
)
from .synthesizer import (
    DEFAULT_POW,
    GraphSynthesizer,
    SynthesisOutcome,
    synthesize_graph,
)

__all__ = [
    "MetropolisHastings",
    "IncrementalMetropolisHastings",
    "MCMCResult",
    "MCMCStepRecord",
    "EdgeSwapWalk",
    "RecordReplacementWalk",
    "edge_swap_delta",
    "MeasurementScore",
    "ScoreTracker",
    "ColumnarScoreEngine",
    "IncrementalColumnarScoreEngine",
    "MeasurementSink",
    "MutableColumnarSource",
    "ChainOutcome",
    "ParallelSynthesisResult",
    "run_chains",
    "DegreeSequenceMeasurements",
    "SEED_EDGE_USES",
    "measure_degree_statistics",
    "build_seed_graph",
    "seed_graph_from_edges",
    "GraphSynthesizer",
    "SynthesisOutcome",
    "synthesize_graph",
    "DEFAULT_POW",
]


def __getattr__(name: str):
    # Lazy re-exports: the columnar scorers pull in the whole vectorized
    # backend (kernels, interner) — eager/dataflow-only users (every CLI
    # experiment by default) should not pay to import it.
    if name in (
        "ColumnarScoreEngine",
        "IncrementalColumnarScoreEngine",
        "MeasurementSink",
        "MutableColumnarSource",
    ):
        from . import columnar_scoring

        return getattr(columnar_scoring, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
