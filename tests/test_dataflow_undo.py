"""Speculative steps on the dataflow engine: ``begin`` / ``commit`` / ``rollback``.

A rejected MCMC step is undone from the engine's undo log instead of by a
second propagation, so the property everything rests on is exactness: after
``rollback()`` every piece of state — node dicts down to nested parts,
collectors, residual distances — *equals* its pre-step snapshot, and after
``commit()`` the engine agrees with eager evaluation as it always did.
"""

from __future__ import annotations

import copy
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import delta_sequences, plans, weights

from repro.analyses import node_degrees, protect_graph, triangles_by_intersect_query
from repro.core import PrivacySession, WeightedDataset
from repro.core.aggregation import NoisyCountResult
from repro.core.laplace import LaplaceNoise
from repro.dataflow import DataflowEngine
from repro.exceptions import DataflowError, ReproError
from repro.graph.generators import erdos_renyi
from repro.inference import GraphSynthesizer
from repro.inference.columnar_scoring import (
    ColumnarScoreEngine,
    IncrementalColumnarScoreEngine,
)
from repro.inference.scoring import ScoreTracker


def snapshot(engine: DataflowEngine, tracker: ScoreTracker | None = None) -> dict:
    """A deep copy of everything a step may overwrite.

    ``SelectManyNode._normalized`` is left out: it memoises a pure function of
    the record, so entries added by a rolled-back step are still correct.
    """
    state = {
        (position, name): copy.deepcopy(value)
        for position, node in enumerate(engine._all_nodes)
        for name, value in vars(node).items()
        if isinstance(value, (dict, tuple)) and name != "_normalized"
    }
    if tracker is not None:
        state["distances"] = [score.distance for score in tracker.scores]
    return state


def build(plan, initial):
    """An initialized engine for ``plan`` with one residual term listening."""
    environment = {name: WeightedDataset(data) for name, data in initial.items()}
    engine = DataflowEngine.from_plans([plan])
    engine.initialize(environment)
    measurement = NoisyCountResult(
        plan.evaluate(environment), 1.0, LaplaceNoise(0), plan=plan, query_name="q"
    )
    return engine, ScoreTracker(engine, [measurement])


initial_strategy = st.fixed_dictionaries(
    {
        "left": st.dictionaries(st.integers(0, 6), weights(), max_size=5),
        "right": st.dictionaries(st.integers(0, 6), weights(), max_size=5),
    }
)


@settings(deadline=None, max_examples=150)
@given(
    plan=plans(),
    initial=initial_strategy,
    updates=delta_sequences(),
    decisions=st.lists(st.sampled_from(["commit", "rollback", "plain"]), min_size=12, max_size=12),
)
def test_rollback_restores_and_commit_matches_eager(plan, initial, updates, decisions):
    engine, tracker = build(plan, initial)
    assert engine._undo.cells is None  # initialize() recorded nothing
    accumulated = {name: dict(data) for name, data in initial.items()}
    for (source, raw), decision in zip(updates, decisions):
        if source not in engine.source_names():
            continue
        # Keep the accumulated dataset non-negative (Shave assumes it).
        delta = {
            record: max(change, -accumulated[source].get(record, 0.0))
            for record, change in raw.items()
        }
        if decision == "rollback":
            before = snapshot(engine, tracker)
            engine.begin()
            engine.push(source, delta)
            engine.rollback()
            assert snapshot(engine, tracker) == before
        else:
            if decision == "commit":
                engine.begin()
            engine.push(source, delta)
            if decision == "commit":
                engine.commit()
            for record, change in delta.items():
                accumulated[source][record] = accumulated[source].get(record, 0.0) + change
        assert engine._undo.cells is None
    expected = plan.evaluate(
        {name: WeightedDataset(data) for name, data in accumulated.items()}
    )
    assert engine.output(plan).distance(expected) < 1e-6
    maintained = tracker.scores[0].distance
    assert tracker.scores[0].resynchronize() == pytest.approx(maintained, abs=1e-6)


@settings(deadline=None, max_examples=40)
@given(plan=plans(), initial=initial_strategy, updates=delta_sequences(max_size=4))
def test_several_pushes_in_one_step_roll_back_together(plan, initial, updates):
    """A cell written twice in a step goes back to its oldest value."""
    engine, tracker = build(plan, initial)
    before = snapshot(engine, tracker)
    engine.begin()
    for source, delta in updates:
        if source in engine.source_names():
            engine.push(source, {record: abs(change) for record, change in delta.items()})
            engine.push(source, {record: abs(change) for record, change in delta.items()})
    engine.rollback()
    assert snapshot(engine, tracker) == before


# ----------------------------------------------------------------------
# The graph queries MCMC actually runs
# ----------------------------------------------------------------------
def graph_problem(seed: int = 3):
    graph = erdos_renyi(30, 70, rng=seed)
    session = PrivacySession(seed=seed)
    edges = protect_graph(session, graph, total_epsilon=float("inf"))
    measurements = list(
        session.measure(
            (triangles_by_intersect_query(edges), 1.0, "tbi"),
            (node_degrees(edges), 1.0, "degrees"),
        )
    )
    return measurements, graph


def test_rejected_steps_move_no_distance_at_all():
    measurements, graph = graph_problem()
    synth = GraphSynthesizer(measurements, graph, pow_=10_000.0, rng=5)
    # Nothing beats an infinite score, so every proposal goes down the
    # sampler's real reject path.
    synth.sampler.current_log_score = float("inf")
    before = snapshot(synth.engine, synth.tracker)
    distances = synth.distances()
    result = synth.sampler.run(5000)
    assert result.accepted == 0
    assert synth.distances() == distances
    synth.tracker.resynchronize()
    moved = [abs(synth.distances()[name] - distances[name]) for name in distances]
    assert moved == [0.0, 0.0]
    assert snapshot(synth.engine, synth.tracker) == before


def test_state_entry_count_ignores_the_log():
    measurements, graph = graph_problem()
    synth = GraphSynthesizer(measurements, graph, rng=1)
    twin = GraphSynthesizer(measurements, graph, rng=1)
    proposal = None
    while proposal is None:
        proposal = synth.walk.propose()
    delta = proposal[0]
    before = synth.state_entry_count()
    synth.engine.begin()
    synth.engine.push("edges", delta)
    assert synth.engine._undo.cells  # the step did record cells ...
    twin.engine.push("edges", delta)
    # ... and none of them is counted: same push, no open step, same count.
    assert synth.state_entry_count() == twin.state_entry_count()
    synth.engine.rollback()
    assert synth.state_entry_count() == before


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def simple_engine():
    session = PrivacySession(seed=0)
    data = session.protect("numbers", list(range(6)))
    query = data.select(lambda x: x % 3).group_by(lambda x: x % 2, len)
    engine = DataflowEngine.from_plans([query.plan])
    engine.initialize(session.environment())
    return engine, query.plan


class TestLifecycle:
    def test_nothing_is_recorded_outside_a_step(self):
        engine, _ = simple_engine()
        assert engine._undo.cells is None
        engine.push("numbers", {7: 1.0})
        assert engine._undo.cells is None

    def test_a_step_records_and_closing_it_empties_the_log(self):
        engine, plan = simple_engine()
        engine.begin()
        assert engine._undo.cells == []
        engine.push("numbers", {7: 1.0})
        assert engine._undo.cells
        engine.commit()
        assert engine._undo.cells is None
        assert engine.source_dataset("numbers")[7] == 1.0
        engine.begin()
        engine.push("numbers", {7: -1.0, 8: 2.0})
        engine.rollback()
        assert engine._undo.cells is None
        assert engine.source_dataset("numbers")[7] == 1.0
        assert engine.source_dataset("numbers")[8] == 0.0

    def test_steps_do_not_nest_and_need_opening(self):
        engine, _ = simple_engine()
        with pytest.raises(DataflowError):
            engine.commit()
        with pytest.raises(DataflowError):
            engine.rollback()
        engine.begin()
        with pytest.raises(DataflowError):
            engine.begin()

    def test_every_node_shares_the_engines_log(self):
        engine, _ = simple_engine()
        assert {id(node.undo) for node in engine._all_nodes} == {id(engine._undo)}


def test_two_engines_in_two_threads_keep_separate_logs():
    first, _ = simple_engine()
    second, _ = simple_engine()
    assert first._undo is not second._undo
    barrier = threading.Barrier(2, timeout=10)
    recorded: dict[str, int] = {}
    errors: list[BaseException] = []

    def speculate() -> None:
        try:
            first.begin()
            first.push("numbers", {1: 1.0})
            recorded["before"] = len(first._undo.cells)
            barrier.wait()  # the other engine works while this step is open
            barrier.wait()
            recorded["after"] = len(first._undo.cells)
            first.rollback()
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    def work() -> None:
        try:
            barrier.wait()
            second.push("numbers", {2: 1.0})  # no step open here: not recorded
            assert second._undo.cells is None
            second.begin()
            second.push("numbers", {3: 1.0})
            second.rollback()
            barrier.wait()
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=speculate), threading.Thread(target=work)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=20)
        assert not thread.is_alive()
    assert not errors
    assert recorded["before"] == recorded["after"] > 0
    assert first.source_dataset("numbers")[1] == 1.0  # back to the initial weight
    assert second.source_dataset("numbers")[2] == 2.0  # the plain push stayed
    assert second.source_dataset("numbers")[3] == 1.0


# ----------------------------------------------------------------------
# The columnar score engines keep the same contract by a negated push
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_type", [ColumnarScoreEngine, IncrementalColumnarScoreEngine])
def test_columnar_engines_commit_and_rollback(engine_type):
    measurements, graph = graph_problem()
    initial = WeightedDataset.from_records(graph.to_edge_records(symmetric=True))
    engine = engine_type(measurements, {"edges": initial}, pow_=2.0)
    walk = GraphSynthesizer(measurements, graph, rng=np.random.default_rng(2)).walk
    proposal = None
    while proposal is None:
        proposal = walk.propose()
    delta = proposal[0]
    score = engine.log_score()
    with pytest.raises(ReproError):
        engine.rollback()
    engine.begin()
    engine.push("edges", delta)
    moved = engine.log_score()
    engine.rollback()
    assert engine.log_score() == pytest.approx(score, abs=1e-9)
    assert engine.source_dataset("edges").distance(initial) < 1e-9
    engine.begin()
    engine.push("edges", delta)
    engine.commit()
    assert engine.log_score() == pytest.approx(moved, abs=1e-9)
    with pytest.raises(ReproError):
        engine.commit()
