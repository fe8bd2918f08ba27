"""``PrivacySession.hold``: a held plan's exact answer is computed once.

Holding a plan may change *when* ``Q(A)`` is evaluated and nothing else: the
released values, the noise stream, the charges and the refusals are those of
a session that holds nothing — on every executor.  The service holds every
hosted query, so the same is asserted through ``MeasurementService``.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyses import (
    length_two_paths,
    protect_graph,
    triangles_by_degree_query,
)
from repro.columnar.specs import Field, GroupSize, Permute
from repro.core import EagerExecutor, PrivacySession, WeightedDataset
from repro.core.aggregation import ExactAnswer
from repro.core.executor import EXECUTORS
from repro.core.plan import SourcePlan
from repro.exceptions import (
    BudgetExceededError,
    DeadlineExceededError,
    PlanError,
)
from repro.graph.generators import erdos_renyi
from repro.resilience.deadline import Deadline, deadline_scope
from repro.service import MeasurementService, default_query_builders
from repro.shard.executor import ShardedExecutor

from strategies import plans, weights

EDGES = [(i, i + 1) for i in range(40)] + [(0, 2), (1, 3), (2, 4), (5, 7)]

#: Every executor name, plus the sharded executor forced onto its inline
#: shard path (by name it falls back to vectorized on inputs this small).
BACKENDS = {name: name for name in EXECUTORS}
BACKENDS["sharded-inline"] = lambda environment: ShardedExecutor(
    environment, shards=2, pool=None, min_rows=0
)

sources = st.fixed_dictionaries(
    {
        "left": st.dictionaries(st.integers(0, 6), weights(), max_size=6),
        "right": st.dictionaries(st.integers(0, 6), weights(), max_size=6),
    }
)

EPSILONS = (0.5, 0.25, 2.0)


class CountingMapper:
    """A mapper that records how many times it is invoked."""

    def __init__(self):
        self.calls = 0

    def __call__(self, record):
        self.calls += 1
        return record


class SpyExecutor:
    """An eager executor that records every batch handed to it."""

    def __init__(self, environment):
        self._inner = EagerExecutor(environment)
        self.batches: list[list] = []

    def evaluate(self, plan):
        return self.evaluate_many([plan])[0]

    def evaluate_many(self, plans):
        self.batches.append(list(plans))
        return self._inner.evaluate_many(plans)

    def reset(self):
        self._inner.reset()


def _session(executor, data, seed=11):
    session = PrivacySession(seed=seed, executor=executor)
    for name, records in data.items():
        session.protect(name, WeightedDataset(records))
    return session


# ----------------------------------------------------------------------
# (a) Identity: holding changes no released bit and no generator state
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", sorted(BACKENDS))
@settings(deadline=None, max_examples=25)
@given(plan=plans(), data=sources)
def test_held_session_releases_what_an_unheld_one_does(backend, plan, data):
    plain = _session(BACKENDS[backend], data)
    holding = _session(BACKENDS[backend], data)
    held = holding.hold(holding.from_plan(plan))
    unheld = plain.from_plan(plan)
    for epsilon in EPSILONS:
        expected = unheld.noisy_count(epsilon)
        got = held.noisy_count(epsilon)
        assert list(got.items()) == list(expected.items())  # order and bits
        assert (
            holding.noise.rng.bit_generator.state
            == plain.noise.rng.bit_generator.state
        )
    assert holding.exact_stats() == {"held": 1, "computed": 1, "reused": 2}
    assert plain.exact_stats() == {"held": 0, "computed": 0, "reused": 0}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_identity_on_portable_plans_that_reach_the_array_paths(backend):
    """The lambda plans above never shard; these spec plans do."""
    data = {
        "edges": {(a, b): 1.0 + 0.25 * ((a + b) % 3) for a in range(9) for b in range(4)}
    }
    released = []
    for hold in (False, True):
        session = _session(BACKENDS[backend], data, seed=3)
        edges = session.from_plan(SourcePlan("edges"))
        degrees = edges.group_by(Field(0), GroupSize())
        queries = [degrees, edges.select(Permute(1, 0)).shave(0.5)]
        if hold:
            for query in queries:
                session.hold(query)
        released.append(
            [
                list(result.items())
                for epsilon in EPSILONS
                for result in session.measure(*[(q, epsilon) for q in queries])
            ]
        )
    assert released[0] == released[1]


# ----------------------------------------------------------------------
# (b) Mixed batches
# ----------------------------------------------------------------------
class TestMixedBatches:
    def _protected(self):
        session = PrivacySession(seed=5, executor=SpyExecutor)
        edges = session.protect("edges", EDGES, total_epsilon=100.0)
        return session, edges

    def test_only_the_plans_not_yet_held_reach_the_executor(self):
        session, edges = self._protected()
        mapper = CountingMapper()
        shared = edges.select(mapper)
        present = session.hold(edges.select(lambda e: e[0]))
        absent = session.hold(shared.where(lambda e: e[0] < 5))
        unheld = shared.where(lambda e: e[1] > 3)

        present.noisy_count(0.1)  # computes `present`
        spy = session.executor
        assert spy.batches == [[present.plan]]

        session.measure((present, 0.2), (absent, 0.2), (unheld, 0.2))
        # One executor call with exactly the two plans that needed evaluating,
        # so their shared Select ran once: one call per input record.
        assert spy.batches[1:] == [[absent.plan, unheld.plan]]
        assert mapper.calls == len(EDGES)
        assert session.exact_stats() == {"held": 2, "computed": 2, "reused": 1}

        session.measure((present, 0.3), (absent, 0.3), (unheld, 0.3))
        assert spy.batches[2:] == [[unheld.plan]]
        assert session.exact_stats()["reused"] == 3

    def test_a_batch_of_nothing_but_hits_never_calls_the_executor(self):
        session, edges = self._protected()
        first = session.hold(edges.select(lambda e: e[0]))
        second = session.hold(edges.select(lambda e: e[1]))
        session.measure((first, 0.1), (second, 0.1))
        calls = len(session.executor.batches)
        results = session.measure((first, 0.2), (second, 0.2), (first, 0.3))
        assert len(session.executor.batches) == calls
        assert [len(result) for result in results] == [40, 40, 40]

    def test_the_same_plan_twice_in_one_batch_is_evaluated_once(self):
        session, edges = self._protected()
        mapper = CountingMapper()
        query = session.hold(edges.select(mapper))
        session.measure((query, 0.1), (query, 0.2))
        assert session.executor.batches == [[query.plan]]
        assert mapper.calls == len(EDGES)
        # Neither request found the answer already there.
        assert session.exact_stats() == {"held": 1, "computed": 1, "reused": 0}

    def test_holding_is_lazy_and_idempotent(self):
        session, edges = self._protected()
        query = edges.select(lambda e: e[0])
        assert session.hold(query) is query
        session.hold(query)
        assert session.exact_stats() == {"held": 1, "computed": 0, "reused": 0}
        assert not session.holds_exact(query)
        assert session.executor.batches == []  # nothing evaluated at hold()
        query.noisy_count(0.1)
        assert session.holds_exact(query)

    def test_compute_held_evaluates_once_and_charges_nothing(self):
        released = []
        for compute_first in (False, True):
            session, edges = self._protected()
            query = session.hold(edges.select(lambda e: e[0]))
            if compute_first:
                state = session.noise.rng.bit_generator.state
                session.compute_held(query)
                session.compute_held(query)
                session.compute_held(edges.select(lambda e: e[1]))  # not held
                assert session.executor.batches == [[query.plan]]
                assert session.spent_budget("edges") == 0.0
                assert session.noise.rng.bit_generator.state == state
            released.append([list(query.noisy_count(eps).items()) for eps in (0.1, 0.2)])
            assert session.executor.batches == [[query.plan]]
            # The first measurement counts as the one that computed the answer.
            assert session.exact_stats() == {"held": 1, "computed": 1, "reused": 1}
        assert released[0] == released[1]

    def test_noisy_sum_on_a_held_plan_evaluates_it_once(self):
        # Weights that are not dyadic: a plain left-to-right sum would round
        # differently in the held answer's order and the dataset's.
        weighted = WeightedDataset({edge: 1.0 / (1 + edge[0] % 7) for edge in EDGES})
        released = []
        for hold in (False, True):
            session = PrivacySession(seed=5, executor=SpyExecutor)
            edges = session.protect("edges", weighted, total_epsilon=100.0)
            query = edges.select(lambda e: e[0])
            if hold:
                session.hold(query)
            released.append(
                [query.noisy_sum(eps, lambda node: node % 3 - 1.0) for eps in (0.5, 0.25)]
            )
            calls = 1 if hold else 2
            assert len(session.executor.batches) == calls
            assert session.exact_stats() == {
                "held": int(hold), "computed": int(hold), "reused": int(hold)
            }
        assert released[0] == released[1]

    def test_a_plan_measured_before_it_was_held_is_computed_at_the_next_one(self):
        session, edges = self._protected()
        query = edges.select(lambda e: e[0])
        query.noisy_count(0.1)
        session.hold(query)
        query.noisy_count(0.1)
        query.noisy_count(0.1)
        assert len(session.executor.batches) == 2

    def test_foreign_queryable_is_refused(self):
        session, _ = self._protected()
        other = PrivacySession(seed=0)
        foreign = other.protect("edges", EDGES)
        with pytest.raises(PlanError, match="different privacy session"):
            session.hold(foreign)


# ----------------------------------------------------------------------
# Refusals on a hit: nothing charged, nothing released, nothing drawn
# ----------------------------------------------------------------------
class TestOneMeasureAtATime:
    def test_a_second_measure_waits_for_the_first_evaluation(self):
        """A held plan's first evaluation runs under the session's measure
        lock: a second thread measuring the plan meanwhile waits, then
        reuses the answer instead of evaluating the plan again."""
        session = PrivacySession(seed=5, executor=SpyExecutor)
        edges = session.protect("edges", EDGES, total_epsilon=100.0)
        entered, release = threading.Event(), threading.Event()

        def gate(record):
            if not entered.is_set():
                entered.set()
                assert release.wait(timeout=30)
            return record

        query = session.hold(edges.select(gate))
        first = threading.Thread(target=query.noisy_count, args=(0.1,))
        first.start()
        assert entered.wait(timeout=30)
        second_done = threading.Event()

        def second():
            query.noisy_count(0.2)
            second_done.set()

        waiting = threading.Thread(target=second)
        waiting.start()
        try:
            # Bounded wait for a finish that must not come while the first
            # measure evaluates.
            assert not second_done.wait(timeout=0.5)
        finally:
            release.set()
            first.join(timeout=30)
            waiting.join(timeout=30)
        assert second_done.is_set()
        assert session.executor.batches == [[query.plan]]
        assert session.exact_stats() == {"held": 1, "computed": 1, "reused": 1}


class TestRefusalsOnAHit:
    def _measured_once(self, total_epsilon):
        session = PrivacySession(seed=9)
        edges = session.protect("edges", EDGES, total_epsilon=total_epsilon)
        query = session.hold(edges.select(lambda e: e[0]))
        query.noisy_count(0.1)
        return session, query

    def test_budget_refusal(self):
        session, query = self._measured_once(total_epsilon=0.15)
        state = session.noise.rng.bit_generator.state
        with pytest.raises(BudgetExceededError):
            query.noisy_count(0.1)
        assert session.spent_budget("edges") == pytest.approx(0.1)
        assert session.noise.rng.bit_generator.state == state
        assert session.exact_stats()["reused"] == 0

    def test_expired_deadline(self):
        session, query = self._measured_once(total_epsilon=1.0)
        state = session.noise.rng.bit_generator.state
        with deadline_scope(Deadline.after(0.0)):
            with pytest.raises(DeadlineExceededError):
                query.noisy_count(0.1)
        assert session.spent_budget("edges") == pytest.approx(0.1)
        assert session.noise.rng.bit_generator.state == state
        assert session.exact_stats()["reused"] == 0


# ----------------------------------------------------------------------
# What is retained: one answer, no intermediates
# ----------------------------------------------------------------------
def _deep_size(value, seen):
    """Bytes reachable from ``value`` through containers and numpy buffers."""
    if id(value) in seen:
        return 0
    seen.add(id(value))
    size = sys.getsizeof(value)
    if isinstance(value, np.ndarray):
        return size if value.flags.owndata else size + value.nbytes
    if isinstance(value, dict):
        return size + sum(
            _deep_size(k, seen) + _deep_size(v, seen) for k, v in value.items()
        )
    if isinstance(value, (tuple, list)):
        return size + sum(_deep_size(item, seen) for item in value)
    return size


def test_retained_state_is_bounded_by_the_answer_not_by_the_intermediates():
    """TbD over 2 000 edges: ``length_two_paths`` alone is ≈ 50 k records
    (≈ 7 MB as a dict); what the session keeps is the released support and
    one float per record."""
    graph = erdos_renyi(300, 2000, rng=4)
    session = PrivacySession(seed=0)
    edges = protect_graph(session, graph)
    query = session.hold(triangles_by_degree_query(edges))
    released = query.noisy_count(0.5)
    assert len(released) > 100

    assert list(session._held) == [query.plan]
    answer = session._held[query.plan]
    assert isinstance(answer, ExactAnswer)
    assert ExactAnswer.__slots__ == ("records", "weights")
    assert not hasattr(answer, "__dict__")
    assert type(answer.records) is tuple and answer.records == tuple(released)
    assert answer.weights.shape == (len(released),)
    assert answer.weights.dtype == np.float64
    assert repr(answer) == f"<ExactAnswer records={len(released)}>"  # R010: a count

    retained = _deep_size([answer.records, answer.weights], set())
    per_record = 8 + 8 + 64 + 3 * 32  # weight, tuple slot, a 3-tuple and its ints
    assert retained <= 1024 + per_record * len(released)
    paths = length_two_paths(edges).evaluate_unprotected()
    assert retained < _deep_size(paths.to_dict(), set()) / 100
    # The executor kept nothing either.
    assert session.executor._memo == {} and session.executor._pinned == {}


# ----------------------------------------------------------------------
# (d) The service holds every hosted query
# ----------------------------------------------------------------------
@pytest.fixture()
def service():
    svc = MeasurementService()
    yield svc
    svc.shutdown()


class TestServiceHolds:
    def test_two_fresh_epsilons_compute_the_exact_answer_once(self, service):
        hosted = service.create_session("demo", EDGES, seed=0)
        held = len(hosted.query_names())
        assert service.stats()["exact"] == {"held": held, "computed": 0, "reused": 0}
        assert hosted.describe()["computed"] == []

        first = service.measure("demo", "wedges", 0.1)
        second = service.measure("demo", "wedges", 0.2)
        assert service.stats()["exact"] == {"held": held, "computed": 1, "reused": 1}
        assert hosted.describe()["computed"] == ["wedges"]
        # A reused exact answer is a fresh release, not a cache hit: charged
        # in full, new noise.
        assert not second.cached
        assert second.charged == {"edges": pytest.approx(2 * 0.2)}  # edges used twice
        assert dict(second.result.items()) != dict(first.result.items())
        assert service.stats()["cache"]["hits"] == 0
        spent = service.budget_report("demo")["edges"]["spent"]
        assert spent == pytest.approx(
            sum(first.charged.values()) + sum(second.charged.values())
        )

    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_hosted_replies_equal_an_unheld_session_on_every_executor(
        self, service, executor
    ):
        requests = [("wedges", 0.1), ("node-count", 0.3), ("wedges", 0.2), ("tbi", 0.1)]
        service.create_session("demo", EDGES, seed=42, executor=executor)
        got = [
            list(service.measure("demo", query, epsilon).result.items())
            for query, epsilon in requests
        ]
        session = PrivacySession(seed=42, executor=executor)
        edges = session.protect("edges", EDGES)
        queries = {
            name: builder(edges) for name, builder in default_query_builders().items()
        }
        expected = [
            list(queries[query].noisy_count(epsilon, query_name=query).items())
            for query, epsilon in requests
        ]
        assert got == expected

    def test_recreated_session_recomputes(self, service):
        service.create_session("demo", EDGES, seed=0)
        service.measure("demo", "node-count", 0.1)
        service.close_session("demo")
        assert service.stats()["exact"] == {"held": 0, "computed": 0, "reused": 0}

        shorter = EDGES[:10]
        hosted = service.create_session("demo", shorter, seed=0)
        assert hosted.describe()["computed"] == []
        answer = service.measure("demo", "node-count", 0.1)
        assert service.stats()["exact"]["computed"] == 1
        # The answer is over the new records, to the bit.
        session = PrivacySession(seed=0)
        node_count = default_query_builders()["node-count"]
        expected = node_count(session.protect("edges", shorter)).noisy_count(0.1)
        assert list(answer.result.items()) == list(expected.items())

    def test_budget_refusal_on_a_hit_charges_and_releases_nothing(self, service):
        service.create_session("tiny", EDGES, total_epsilon=0.15, seed=0)
        service.measure("tiny", "node-count", 0.1)
        with pytest.raises(BudgetExceededError):
            service.measure("tiny", "node-count", 0.09)
        assert service.budget_report("tiny")["edges"]["spent"] == pytest.approx(0.1)
        assert service.stats()["exact"]["reused"] == 0
        assert len(service.cache) == 1
        actions = [event.action for event in service.audit("tiny")]
        assert actions == ["create-session", "measure", "refused"]

    def test_expired_deadline_on_a_hit_charges_and_releases_nothing(self, service):
        service.create_session("dl", EDGES, total_epsilon=1.0, seed=0)
        service.measure("dl", "node-count", 0.1)
        with pytest.raises(DeadlineExceededError):
            service.measure("dl", "node-count", 0.2, deadline=Deadline.after(0.0))
        assert service.budget_report("dl")["edges"]["spent"] == pytest.approx(0.1)
        assert service.stats()["exact"]["reused"] == 0
        assert len(service.cache) == 1


def test_evicted_durable_replica_takes_its_exact_answers_with_it(tmp_path):
    """Close + re-create on a durable service: the closed session's replica —
    and with it every exact answer it held — is dropped, so the new records
    are what gets measured."""
    service = MeasurementService(ledger_path=str(tmp_path / "ledger.db"))
    try:
        service.create_session("acme", EDGES, seed=7)
        old = service.measure("acme", "node-count", 50.0)  # computes the answer
        assert service.stats()["exact"]["computed"] == 1
        stale = service.session("acme").session

        service.close_session("acme")
        assert service.stats()["exact"] == {"held": 0, "computed": 0, "reused": 0}
        service.create_session("acme", EDGES[:5], seed=7)
        new = service.measure("acme", "node-count", 40.0)
        assert service.session("acme").session is not stale
        assert service.stats()["exact"]["computed"] == 1  # the new replica's own
        # 41 nodes before, 6 now; Laplace(1/40) does not bridge that.
        ((_, before),) = old.result.items()
        ((_, after),) = new.result.items()
        assert after < before / 3
    finally:
        service.shutdown()
