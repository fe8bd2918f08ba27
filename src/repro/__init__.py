"""wPINQ: differentially private analysis of weighted datasets.

A from-scratch Python reproduction of

    Proserpio, Goldberg, McSherry.
    "Calibrating Data to Sensitivity in Private Data Analysis"
    (PVLDB 7(8), 2014)

The package is organised as follows:

``repro.core``
    Weighted datasets, stable transformations, the fluent wPINQ query
    language, Laplace aggregation and privacy-budget accounting — plus the
    unified execution layer: every measurement runs through an
    :class:`~repro.core.executor.Executor` (eager-memoising or incremental
    dataflow), and ``PrivacySession.measure`` batches many measurements with
    atomic budget charging and shared-sub-plan reuse.
``repro.dataflow``
    The incremental (view-maintenance style) query evaluation engine behind
    the ``"dataflow"`` executor backend; it makes MCMC over synthetic
    datasets fast and keeps compiled plans warm across measurements.
``repro.graph``
    Graph substrate: data structures, statistics, generators and the
    synthetic stand-ins for the paper's evaluation graphs.
``repro.analyses``
    The paper's graph queries: degree CCDF/sequence, joint degree
    distribution, triangles-by-degree, triangles-by-intersect,
    squares-by-degree and generic motif counting.
``repro.inference``
    Metropolis–Hastings probabilistic inference over synthetic graphs fit to
    released wPINQ measurements, including the full graph-synthesis workflow.
``repro.postprocess``
    Consistency post-processing (isotonic regression, joint CCDF/degree
    sequence path fitting).
``repro.baselines``
    Prior bespoke approaches the paper compares against (Hay et al. degree
    distributions, Sala et al. joint degree distribution, worst-case
    sensitivity triangle counting).
``repro.experiments``
    The paper's tables and figures, one ``EXPERIMENTS`` record each (run,
    render, claims), read by ``repro <experiment>`` and the paper suite.
``repro.service``
    The interactive measurement service: multi-tenant session hosting,
    one charge per request on the connection's thread, answer replay and
    an HTTP/JSON transport (``repro serve``), one process per ledger file.
``repro.persistence``
    Durability under the service: a sqlite ledger store whose budgets are
    a table (a charge is one transaction) with exact crash recovery, the
    ``DurableLedger`` drop-in for ``BudgetLedger``, and per-tenant rate
    limiting / load shedding.
"""

from .core import (
    DataflowExecutor,
    EagerExecutor,
    Executor,
    LaplaceNoise,
    MeasurementRequest,
    MeasurementSet,
    NoisyCountResult,
    PrivacySession,
    Queryable,
    WeightedDataset,
)
from .exceptions import (
    BudgetExceededError,
    DataflowError,
    GraphError,
    InvalidEpsilonError,
    PlanError,
    ReproError,
)

__version__ = "1.0.0"

__all__ = [
    "WeightedDataset",
    "PrivacySession",
    "Queryable",
    "Executor",
    "EagerExecutor",
    "DataflowExecutor",
    "MeasurementRequest",
    "MeasurementSet",
    "NoisyCountResult",
    "LaplaceNoise",
    "ReproError",
    "BudgetExceededError",
    "InvalidEpsilonError",
    "PlanError",
    "DataflowError",
    "GraphError",
    "__version__",
]
