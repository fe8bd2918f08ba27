"""The transformation table: every per-operator fact is declared once.

A plan type declares ``op`` and ``params`` in :mod:`repro.core.plan`; every
layer keys its behaviour by ``op`` — the eager rules, the columnar kernels,
the two incremental engines' node tables, the shard wire codec — and the
privacy accounting reads the type's ``stability`` constant and nothing else.  These tests police that arrangement:

(a) completeness — a plan type added in one place only fails here;
(b) ``Plan.fold`` — once per node, children first, shared children shared;
(c) propagation order — the two graph compilers subscribe a node to child
    *k* before compiling child *k+1*, which fixes every consumer list and so
    the accept sequence of a seeded MCMC run; both are pinned to the values
    of the commit before the table existed.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

from repro import analyses
from repro.columnar import kernels
from repro.columnar.executor import _ARRAY_SPECS, VectorizedExecutor
from repro.columnar.incremental import NODE_FOR_OP as DELTA_NODE_FOR_OP, IncrementalGraph
from repro.columnar.specs import (
    ExplodeFields,
    Field,
    FieldsDiffer,
    GroupSize,
    JoinFields,
    Permute,
)
from repro.core import PrivacySession, WeightedDataset, transformations
from repro.core.executor import EagerExecutor
from repro.core.partition import PartitionPlan
from repro.core.plan import (
    PLAN_FOR_OP,
    ConcatPlan,
    DistinctPlan,
    DownScalePlan,
    ExceptPlan,
    GroupByPlan,
    IntersectPlan,
    JoinPlan,
    Plan,
    SelectManyPlan,
    SelectPlan,
    ShavePlan,
    SourcePlan,
    UnionPlan,
    WherePlan,
    stability_bounds,
)
from repro.dataflow.engine import DataflowEngine
from repro.dataflow.operators import NODE_FOR_OP
from repro.exceptions import DataflowError, PlanError
from repro.graph.generators import collaboration_graph, erdos_renyi
from repro.inference import GraphSynthesizer
from repro.inference.seed import seed_graph_from_edges
from repro.shard.plan import UnportablePlanError, decode_plan, encode_plan
from strategies import plans


# ----------------------------------------------------------------------
# (a) Completeness
# ----------------------------------------------------------------------
def _concrete_plan_types() -> set[type]:
    found, pending = set(), [Plan]
    while pending:
        for subclass in pending.pop().__subclasses__():
            pending.append(subclass)
            # Abstract helpers are underscore-named; stubs defined by tests
            # live outside the package.
            if subclass.__module__.startswith("repro.") and not subclass.__name__.startswith("_"):
                found.add(subclass)
    return found


def _samples() -> list[Plan]:
    """One node of every concrete plan type (operands are never called)."""
    source = SourcePlan("edges")
    part = PrivacySession().protect("edges", []).partition(Field(0), [1])[1].plan
    return [
        source,
        SelectPlan(source, Permute(1, 0)),
        WherePlan(source, FieldsDiffer(0, 1)),
        SelectManyPlan(source, ExplodeFields()),
        GroupByPlan(source, Field(0), GroupSize()),
        ShavePlan(source, 1.0),
        DistinctPlan(source, 2.0),
        DownScalePlan(source, 0.5),
        JoinPlan(source, source, Field(0), Field(1), JoinFields(("l", 1), ("r", 0))),
        UnionPlan(source, source),
        IntersectPlan(source, source),
        ConcatPlan(source, source),
        ExceptPlan(source, source),
        part,
    ]


def test_every_concrete_plan_type_has_a_sample():
    assert {type(sample) for sample in _samples()} == _concrete_plan_types()
    assert set(PLAN_FOR_OP.values()) == _concrete_plan_types() - {PartitionPlan}
    assert all(plan_type.op == op for op, plan_type in PLAN_FOR_OP.items())


@pytest.mark.parametrize("sample", _samples(), ids=lambda sample: type(sample).__name__)
def test_op_resolves_in_every_layer(sample):
    op = sample.op
    if op == "source":
        # Sources are the executors' ``dataset`` and the engines' source nodes.
        assert sample.operands() == ("edges",)
    else:
        for layer in (transformations, kernels):
            assert callable(getattr(layer, op)), f"{layer.__name__} has no {op}"
        for table in (NODE_FOR_OP, DELTA_NODE_FOR_OP):
            assert op in table
    assert "stability" in vars(type(sample)), f"{type(sample).__name__} declares no stability"
    for name in sample.params:
        assert hasattr(sample, name), f"{type(sample).__name__}.params names {name!r}"
    assert len(_ARRAY_SPECS.get(op, ())) <= len(sample.params)


def test_stability_is_one_except_down_scale_which_is_its_factor():
    for sample in _samples():
        expected = sample.factor if isinstance(sample, DownScalePlan) else 1.0
        assert sample.stability == expected, type(sample).__name__
    assert Plan.stability is None
    scaled = DownScalePlan(JoinPlan(SourcePlan("s"), SourcePlan("s"), Field(0), Field(0)), 0.25)
    assert stability_bounds(scaled) == {"s": 0.5}


def test_tables_name_no_unknown_transformation():
    ops = {sample.op for sample in _samples()}
    assert set(NODE_FOR_OP) == set(DELTA_NODE_FOR_OP) == ops - {"source"}
    assert set(PLAN_FOR_OP) == ops
    assert set(_ARRAY_SPECS) <= ops


@pytest.mark.parametrize("sample", _samples(), ids=lambda sample: type(sample).__name__)
def test_wire_round_trip_rebuilds_an_equal_shaped_node(sample):
    if isinstance(sample, PartitionPlan):
        with pytest.raises(UnportablePlanError, match="PartitionPlan has no portable encoding"):
            encode_plan(sample)
        return
    portable = encode_plan(sample)
    kind, params, children = portable.nodes[-1]
    assert (kind, params, len(children)) == (sample.op, sample.operands(), len(sample.children))
    rebuilt = decode_plan(portable)
    assert type(rebuilt) is type(sample)
    assert rebuilt.operands() == sample.operands()
    assert [type(child) for child in rebuilt.children] == [type(c) for c in sample.children]
    if len(sample.children) == 2:
        assert rebuilt.children[0] is rebuilt.children[1]  # sharing survives the wire


class _StubPlan(Plan):
    """A plan type no layer has heard of."""

    op = "frobnicate"

    def __init__(self, child: Plan) -> None:
        self.children = (child,)


@pytest.mark.parametrize(
    "run, error",
    [
        (lambda plan: EagerExecutor({"s": WeightedDataset({1: 1.0})}).evaluate(plan), PlanError),
        (lambda plan: VectorizedExecutor({"s": WeightedDataset({1: 1.0})}).evaluate(plan), PlanError),
        (lambda plan: DataflowEngine.from_plans([plan]), DataflowError),
        (lambda plan: IncrementalGraph().compile(plan), DataflowError),
        (stability_bounds, PlanError),
        (encode_plan, UnportablePlanError),
    ],
    ids=["eager", "vectorized", "dataflow", "incremental", "lint", "shard"],
)
def test_unknown_op_is_refused_by_name(run, error):
    with pytest.raises(error, match="_StubPlan"):
        run(_StubPlan(SourcePlan("s")))


# ----------------------------------------------------------------------
# (b) The one traversal
# ----------------------------------------------------------------------
def _distinct_node_ids(plan: Plan) -> set[int]:
    seen: set[int] = set()
    pending = [plan]
    while pending:
        node = pending.pop()
        if id(node) not in seen:
            seen.add(id(node))
            pending.extend(node.children)
    return seen


@settings(max_examples=40, deadline=None)
@given(plan=plans())
def test_fold_visits_each_node_once_children_first(plan):
    order: list[int] = []

    def visit(node, children):
        # Each child's result is that child's own visit's return value.
        assert children == [id(child) for child in node.children]
        assert all(child in order for child in children)
        order.append(id(node))
        return id(node)

    assert plan.fold(visit) == id(plan)
    assert Counter(order) == Counter(_distinct_node_ids(plan))


def test_fold_delivers_a_shared_child_to_both_ports():
    base = SelectPlan(SourcePlan("left"), Permute(1, 0))
    join = JoinPlan(base, base, Field(0), Field(1))
    visits: list[Plan] = []

    def visit(node, children):
        visits.append(node)
        if node is join:
            assert children[0] is children[1]
        return object()

    join.fold(visit)
    assert [type(node) for node in visits] == [SourcePlan, SelectPlan, JoinPlan]


def test_fold_is_left_to_right():
    left, right = SourcePlan("a"), SourcePlan("b")
    labels = ConcatPlan(WherePlan(left, FieldsDiffer(0, 1)), right).fold(
        lambda node, children: [label for child in children for label in child] + [node._label()]
    )
    assert labels == ["Source(a)", "WherePlan", "Source(b)", "ConcatPlan"]


def test_source_multiplicities_is_linear_in_nodes():
    plan: Plan = SourcePlan("s")
    for _ in range(60):
        plan = ConcatPlan(plan, plan)
    started = time.perf_counter()
    assert stability_bounds(plan) == {"s": 2**60}
    assert time.perf_counter() - started < 0.01


def test_partition_attribution_is_linear_in_nodes():
    session = PrivacySession()
    edges = session.protect("edges", [(1, 2)], total_epsilon=1e30)
    part = edges.partition(Field(0), [1])[1]
    chain = part.concat(edges)  # one path through the part and one direct use, each 2**40 below
    for _ in range(40):
        chain = chain.concat(chain)
    started = time.perf_counter()
    assert chain.privacy_cost(1.0) == {"edges": 2.0**41}
    assert time.perf_counter() - started < 0.01


# ----------------------------------------------------------------------
# (c) Propagation order is behaviour
# ----------------------------------------------------------------------
_QUERIES = {name: builder for name, (_, builder) in analyses.NAMED_QUERIES.items()}

#: query -> (source uses, [(shared plan node, [(consumer, port), ...])]) in
#: fold order; a consumer is named by its transformation on either engine.
_PINNED = {
    "degree-ccdf": (1, []),
    "degree-sequence": (1, []),
    "node-count": (1, []),
    "jdd": (
        4,
        [
            ("Source(edges)", [("GroupBy", 0), ("Join", 1)]),
            ("JoinPlan", [("Join", 0), ("Join", 1)]),
        ],
    ),
    "tbd": (
        9,
        [
            ("Source(edges)", [("Join", 0), ("Join", 1), ("GroupBy", 0)]),
            ("JoinPlan", [("Join", 0), ("Select", 0)]),
            ("SelectPlan", [("Join", 1), ("Select", 0)]),
        ],
    ),
    "tbi": (
        4,
        [
            ("Source(edges)", [("Join", 0), ("Join", 1)]),
            ("WherePlan", [("Select", 0), ("Intersect", 1)]),
        ],
    ),
    "wedges": (2, [("Source(edges)", [("Join", 0), ("Join", 1)])]),
    "sbd": (
        12,
        [
            ("Source(edges)", [("Join", 0), ("Join", 1), ("GroupBy", 0)]),
            ("JoinPlan", [("Join", 0), ("Join", 1)]),
            ("WherePlan", [("Join", 0), ("Select", 0)]),
        ],
    ),
    "stars": (1, []),
}


def _shared_consumers(plan: Plan, node_of) -> list:
    rows = []

    def visit(node, _children):
        consumers = node_of(node)._consumers
        if len(consumers) > 1:
            rows.append(
                (
                    node._label(),
                    [
                        (type(consumer).__name__.removesuffix("Node").removesuffix("Delta"), port)
                        for consumer, port in consumers
                    ],
                )
            )

    plan.fold(visit)
    return rows


@pytest.mark.parametrize("name", sorted(_QUERIES))
def test_consumer_lists_are_the_parent_commits(name):
    plan = _QUERIES[name](PrivacySession().protect("edges", [])).plan
    uses, consumers = _PINNED[name]
    assert stability_bounds(plan) == {"edges": uses}
    engine = DataflowEngine.from_plans([plan])
    assert _shared_consumers(plan, lambda node: engine._nodes[id(node)]) == consumers
    graph = IncrementalGraph()
    graph.compile(plan)
    assert _shared_consumers(plan, lambda node: graph._nodes[id(node)]) == consumers


#: 500 accept/reject decisions, most significant bit first.
_ACCEPTS = int(
    "bc215540e20e021c58820461014120000064000002000200500000102002003000803c14"
    "08a8001090800000102040c0108020001225720800080020a10",
    16,
)


#: The log score after those 500 steps, bit for bit (the backends sum in
#: different orders, so the last bits differ between them).
_LOG_SCORES = {"dataflow": "-0x1.c0504f310355bp+10", "incremental": "-0x1.c0504f310355ep+10"}


@pytest.mark.parametrize(
    "backend, state_entries", [("dataflow", 2878), ("incremental", 6935)]
)
def test_seeded_accept_sequence_is_the_parent_commits(backend, state_entries):
    graph = erdos_renyi(40, 90, rng=2)
    session = PrivacySession(seed=3)
    edges = analyses.protect_graph(session, graph, total_epsilon=100.0)
    measurements = list(
        session.measure(
            (analyses.triangles_by_intersect_query(edges), 0.5, "tbi"),
            (analyses.node_degrees(edges), 0.2, "degrees"),
        )
    )
    seed_graph, _ = seed_graph_from_edges(edges, 0.3, rng=np.random.default_rng(5))
    synthesizer = GraphSynthesizer(measurements, seed_graph, pow_=50.0, rng=7, backend=backend)
    accepts = 0
    for _ in range(500):
        accepts = (accepts << 1) | synthesizer.step()
    assert accepts == _ACCEPTS
    assert synthesizer.log_score.hex() == _LOG_SCORES[backend]
    assert synthesizer.state_entry_count() == state_entries


def test_seeded_reject_regime_is_the_parent_commits():
    """The converged regime (almost every swap rejected), pinned bit for bit.

    Starting at the measured triangle-rich graph with ``pow_=10000`` nearly
    every step is a push and a rollback; the accepted count, the exact log
    score, the state size and every collector's contents must not move.
    """
    graph = collaboration_graph(300, 320, rng=11)
    session = PrivacySession(seed=11)
    edges = analyses.protect_graph(session, graph, total_epsilon=float("inf"))
    measurements = list(
        session.measure(
            (analyses.triangles_by_intersect_query(edges), 1.0, "tbi"),
            (analyses.node_degrees(edges), 1.0, "degrees"),
        )
    )
    synthesizer = GraphSynthesizer(measurements, graph, pow_=10000.0, rng=11, backend="dataflow")
    assert sum(synthesizer.step() for _ in range(300)) == 5
    assert synthesizer.log_score.hex() == "-0x1.4daecedaaf9e6p+21"
    assert synthesizer.state_entry_count() == 29725
    digest = hashlib.sha256()
    for collector in synthesizer.engine._collectors.values():
        for entry in sorted((repr(r), w.hex()) for r, w in collector.weights.items()):
            digest.update(repr(entry).encode())
    assert digest.hexdigest() == "61b2ffca7d5adbc0290020a0e5250d2d53013143bfd8417a8c10a468bb0a624e"
