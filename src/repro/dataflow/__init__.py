"""Incremental (view-maintenance style) evaluation of wPINQ queries.

This package implements the engine described in Section 4.3 of the paper: a
data-parallel dataflow graph whose operators respond to small input deltas by
recomputing only the affected parts of their output.  It is what makes the
Metropolis–Hastings loop in :mod:`repro.inference` fast enough to take many
thousands of steps: each proposed edge swap is a four-to-eight record delta,
not a full re-execution of the query, and a rejected swap is undone from the
engine's :class:`UndoLog` (``begin`` / ``commit`` / ``rollback``) instead of
being propagated a second time.
"""

from .delta import (
    Delta,
    UndoLog,
    accumulate,
    apply_delta,
    delta_from_dataset,
    negate,
    prune,
)
from .engine import DataflowEngine
from .nodes import Node, OutputCollector, SourceNode
from .operators import (
    ConcatNode,
    ExceptNode,
    GroupByNode,
    IntersectNode,
    JoinNode,
    SelectManyNode,
    SelectNode,
    ShaveNode,
    UnionNode,
    WhereNode,
)

__all__ = [
    "DataflowEngine",
    "Delta",
    "UndoLog",
    "accumulate",
    "apply_delta",
    "delta_from_dataset",
    "negate",
    "prune",
    "Node",
    "SourceNode",
    "OutputCollector",
    "SelectNode",
    "WhereNode",
    "SelectManyNode",
    "ShaveNode",
    "GroupByNode",
    "JoinNode",
    "UnionNode",
    "IntersectNode",
    "ConcatNode",
    "ExceptNode",
]
