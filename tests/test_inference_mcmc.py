"""Tests for the Metropolis–Hastings machinery (generic and incremental)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PrivacySession, WeightedDataset
from repro.dataflow import DataflowEngine
from repro.inference import (
    IncrementalMetropolisHastings,
    MCMCResult,
    MetropolisHastings,
    ScoreTracker,
)


class TestPlainMetropolisHastings:
    def test_converges_to_high_score_region(self):
        # State is an integer; score peaks sharply at 10.
        def propose(state, rng):
            return state + int(rng.integers(-2, 3))

        def log_score(state):
            return -abs(state - 10) * 2.0

        sampler = MetropolisHastings(0, propose, log_score, rng=0)
        result = sampler.run(2000)
        assert abs(sampler.state - 10) <= 3
        assert result.steps == 2000

    def test_always_accepts_improvements(self):
        sampler = MetropolisHastings(
            0, lambda state, rng: state + 1, lambda state: float(state), rng=0
        )
        sampler.run(50)
        assert sampler.state == 50
        assert sampler.accepted == 50

    def test_rejects_most_large_downhill_moves(self):
        sampler = MetropolisHastings(
            0, lambda state, rng: state + 1, lambda state: -100.0 * state, rng=0
        )
        sampler.run(200)
        assert sampler.state <= 2

    def test_trajectory_recording_and_metrics(self):
        sampler = MetropolisHastings(
            0, lambda state, rng: state + 1, lambda state: float(state), rng=0
        )
        result = sampler.run(100, record_every=25, metrics={"state": lambda s: s})
        assert [record.step for record in result.trajectory] == [25, 50, 75, 100]
        assert result.trajectory[-1].metrics["state"] == 100

    def test_second_run_reports_its_own_accepts(self):
        """``accepted`` is per call, like ``steps``: the rate stays a rate."""
        sampler = MetropolisHastings(
            0, lambda state, rng: state + 1, lambda state: float(state), rng=0
        )
        sampler.run(30)
        second = sampler.run(20, record_every=20)
        assert (second.steps, second.accepted) == (20, 20)
        assert second.acceptance_rate == 1.0
        assert sampler.accepted == 50
        assert second.trajectory[-1].accepted_so_far == 50

    def test_result_properties(self):
        result = MCMCResult(steps=100, accepted=40, log_score=-1.0, elapsed_seconds=2.0)
        assert result.acceptance_rate == pytest.approx(0.4)
        assert result.steps_per_second == pytest.approx(50.0)
        empty = MCMCResult(steps=0, accepted=0, log_score=0.0, elapsed_seconds=0.0)
        assert empty.acceptance_rate == 0.0


@pytest.fixture()
def histogram_problem():
    """A tiny inference problem over plain weighted datasets.

    The protected histogram has most of its weight on record "a"; MCMC moves
    unit weights around a public candidate histogram to match the released
    noisy counts.
    """
    session = PrivacySession(seed=0)
    secret = session.protect("histogram", {"a": 8.0, "b": 2.0, "c": 0.0})
    measurement = secret.noisy_count(5.0, query_name="histogram")
    return session, secret, measurement


class TestIncrementalMetropolisHastings:
    def test_fits_released_measurement(self, histogram_problem):
        from repro.inference import RecordReplacementWalk

        _, secret, measurement = histogram_problem
        engine = DataflowEngine.from_plans([measurement.plan])
        # Public initial candidate: all weight on "c".
        initial = {"a": 0.0, "b": 0.0, "c": 10.0}
        engine.initialize({"histogram": WeightedDataset(initial)})
        tracker = ScoreTracker(engine, [measurement], pow_=3.0)
        walk = RecordReplacementWalk(initial, domain=["a", "b", "c"], rng=1)
        sampler = IncrementalMetropolisHastings(
            engine, tracker, walk.proposal_for_engine("histogram"), rng=2
        )
        initial_distance = tracker.distances()["histogram"]
        sampler.run(400)
        final_distance = tracker.distances()["histogram"]
        assert final_distance < initial_distance / 2
        # The candidate should have moved most of its weight onto "a".
        final = engine.source_dataset("histogram")
        assert final["a"] > final["c"]

    def test_same_integer_seed_accepts_the_same_sequence(self, histogram_problem):
        """An integer ``rng`` seeds the accept draws: two chains given the
        same one agree step by step, and a different one does not."""
        from repro.inference import RecordReplacementWalk

        _, _, measurement = histogram_problem

        def accepts(seed):
            initial = {"a": 0.0, "b": 0.0, "c": 10.0}
            engine = DataflowEngine.from_plans([measurement.plan])
            engine.initialize({"histogram": WeightedDataset(initial)})
            tracker = ScoreTracker(engine, [measurement], pow_=1.0)
            walk = RecordReplacementWalk(initial, domain=["a", "b", "c"], rng=1)
            sampler = IncrementalMetropolisHastings(
                engine, tracker, walk.proposal_for_engine("histogram"), rng=seed
            )
            return [sampler.step() for _ in range(200)]

        first = accepts(2)
        assert 0 < sum(first) < len(first)
        assert accepts(2) == first
        assert accepts(3) != first

    def test_rejected_moves_are_rolled_back(self, histogram_problem):
        _, _, measurement = histogram_problem
        engine = DataflowEngine.from_plans([measurement.plan])
        engine.initialize({"histogram": WeightedDataset({"a": 8.0, "b": 2.0})})
        tracker = ScoreTracker(engine, [measurement], pow_=10_000.0)

        # A proposal that always makes things much worse.
        def propose(rng):
            return {"histogram": {"a": -5.0, "z": 5.0}}, (lambda: None), (lambda: None)

        sampler = IncrementalMetropolisHastings(engine, tracker, propose, rng=0)
        before = engine.source_dataset("histogram").to_dict()
        accepted = sampler.step()
        assert not accepted
        assert engine.source_dataset("histogram").to_dict() == pytest.approx(before)

    def test_none_proposals_count_as_rejected_steps(self, histogram_problem):
        _, _, measurement = histogram_problem
        engine = DataflowEngine.from_plans([measurement.plan])
        engine.initialize({"histogram": WeightedDataset({"a": 1.0})})
        tracker = ScoreTracker(engine, [measurement], pow_=1.0)
        sampler = IncrementalMetropolisHastings(engine, tracker, lambda rng: None, rng=0)
        result = sampler.run(10)
        assert result.steps == 10
        assert result.accepted == 0

    def test_second_run_reports_its_own_accepts(self, histogram_problem):
        """Regression: run() paired this call's steps with cumulative accepts,
        so a second call could report an acceptance rate above 1."""
        _, _, measurement = histogram_problem
        engine = DataflowEngine.from_plans([measurement.plan])
        engine.initialize({"histogram": WeightedDataset({"a": 0.0, "c": 100.0})})
        tracker = ScoreTracker(engine, [measurement], pow_=5.0)
        delta = {"histogram": {"c": -0.01, "a": 0.01}}  # always an improvement

        def propose(rng):
            return delta, (lambda: None), (lambda: None)

        sampler = IncrementalMetropolisHastings(engine, tracker, propose, rng=1)
        first = sampler.run(40)
        second = sampler.run(10, record_every=10)
        assert (first.steps, first.accepted) == (40, 40)
        assert (second.steps, second.accepted) == (10, 10)
        assert second.acceptance_rate == 1.0
        assert sampler.accepted == 50
        assert second.trajectory[-1].accepted_so_far == 50

    def test_accept_callbacks_fire_only_on_acceptance(self, histogram_problem):
        _, _, measurement = histogram_problem
        engine = DataflowEngine.from_plans([measurement.plan])
        engine.initialize({"histogram": WeightedDataset({"a": 0.0, "c": 10.0})})
        tracker = ScoreTracker(engine, [measurement], pow_=5.0)
        events = {"accept": 0, "reject": 0}

        def propose(rng):
            delta = {"histogram": {"c": -1.0, "a": 1.0}}
            return (
                delta,
                lambda: events.__setitem__("accept", events["accept"] + 1),
                lambda: events.__setitem__("reject", events["reject"] + 1),
            )

        sampler = IncrementalMetropolisHastings(engine, tracker, propose, rng=1)
        result = sampler.run(20)
        assert events["accept"] == result.accepted
        assert events["reject"] == result.steps - result.accepted

    def test_trajectory_metrics_are_callables_without_arguments(self, histogram_problem):
        _, _, measurement = histogram_problem
        engine = DataflowEngine.from_plans([measurement.plan])
        engine.initialize({"histogram": WeightedDataset({"a": 1.0})})
        tracker = ScoreTracker(engine, [measurement], pow_=1.0)
        sampler = IncrementalMetropolisHastings(engine, tracker, lambda rng: None, rng=0)
        result = sampler.run(10, record_every=5, metrics={"constant": lambda: 7.0})
        assert all(record.metrics["constant"] == 7.0 for record in result.trajectory)
