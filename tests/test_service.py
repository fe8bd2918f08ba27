"""Tests for the concurrent multi-tenant measurement service (repro.service)."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.analyses import NAMED_QUERIES
from repro.exceptions import (
    BudgetExceededError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.service import (
    AnswerCache,
    MeasurementService,
    SessionRegistry,
)

EDGES = [(i, i + 1) for i in range(40)] + [(0, 2), (1, 3), (2, 4), (5, 7)]


@pytest.fixture()
def service():
    svc = MeasurementService(max_pending=64)
    yield svc
    svc.shutdown()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestSessionRegistry:
    def test_create_hosts_default_queries(self, service):
        hosted = service.create_session("demo", EDGES, total_epsilon=1.0, seed=0)
        assert hosted.query_names() == sorted(NAMED_QUERIES)
        assert {"degree-ccdf", "tbi"} <= set(NAMED_QUERIES)
        assert service.budget_report("demo")["edges"]["total"] == 1.0

    def test_duplicate_session_name_rejected(self, service):
        service.create_session("demo", EDGES, seed=0)
        with pytest.raises(ServiceError, match="already exists"):
            service.create_session("demo", EDGES, seed=0)

    def test_unknown_session_and_query_raise(self, service):
        with pytest.raises(ServiceError, match="no session"):
            service.measure("missing", "node-count", 0.1)
        service.create_session("demo", EDGES, seed=0)
        with pytest.raises(ServiceError, match="no query"):
            service.measure("demo", "missing", 0.1)

    def test_audit_records_lifecycle(self, service):
        service.create_session("demo", EDGES, total_epsilon=1.0, seed=0)
        service.measure("demo", "node-count", 0.1)
        service.measure("demo", "node-count", 0.1)  # cache hit
        service.close_session("demo")
        actions = [event.action for event in service.audit("demo")]
        assert actions == ["create-session", "measure", "cache-hit", "close-session"]
        measured = [e for e in service.audit("demo") if e.action == "measure"][0]
        assert measured.detail["charged"] == {"edges": pytest.approx(0.1)}

    def test_custom_queries(self, service):
        registry: SessionRegistry = service.registry
        hosted = registry.create(
            "letters",
            ["a", "b", "c"],
            total_epsilon=1.0,
            seed=0,
            source="letters",
            queries={"identity": lambda q: q},
        )
        assert hosted.query_names() == ["identity"]
        answer = service.measure("letters", "identity", 0.2)
        assert answer.charged == {"letters": pytest.approx(0.2)}


# ----------------------------------------------------------------------
# Answer-reuse cache
# ----------------------------------------------------------------------
class TestAnswerReuse:
    def test_repeat_is_bit_identical_and_budget_free(self, service):
        service.create_session("demo", EDGES, total_epsilon=1.0, seed=0)
        first = service.measure("demo", "degree-ccdf", 0.1)
        spent_after_first = service.budget_report("demo")["edges"]["spent"]
        second = service.measure("demo", "degree-ccdf", 0.1)

        assert not first.cached and second.cached
        assert second.result is first.result  # the very released object
        assert dict(second.result.items()) == dict(first.result.items())
        assert second.charged == {}
        assert service.budget_report("demo")["edges"]["spent"] == spent_after_first

    def test_distinct_epsilon_is_a_fresh_measurement(self, service):
        service.create_session("demo", EDGES, total_epsilon=1.0, seed=0)
        first = service.measure("demo", "node-count", 0.1)
        other = service.measure("demo", "node-count", 0.2)
        assert not other.cached
        assert other.result is not first.result
        assert service.budget_report("demo")["edges"]["spent"] == pytest.approx(0.3)

    def test_cache_starts_empty(self):
        cache = AnswerCache()
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (0, 0, 0)

    def test_closing_a_session_evicts_its_cached_answers(self, service):
        service.create_session("gone", EDGES, total_epsilon=1.0, seed=0)
        service.measure("gone", "node-count", 0.1)
        assert len(service.cache) == 1
        service.close_session("gone")
        assert len(service.cache) == 0
        # A recreated same-name session starts fresh: nothing replays.
        service.create_session("gone", EDGES, total_epsilon=1.0, seed=0)
        answer = service.measure("gone", "node-count", 0.1)
        assert not answer.cached

    def test_cache_is_bounded_lru(self, service):
        service.scheduler._cache._max_entries = 3  # shrink for the test
        service.create_session("demo", EDGES, seed=0)
        for index in range(5):
            service.measure("demo", "node-count", 0.01 * (index + 1))
        stats = service.cache.stats()
        assert stats["size"] == 3
        assert stats["evictions"] == 2
        # An evicted measurement is simply measured afresh (a new release).
        refreshed = service.measure("demo", "node-count", 0.01)
        assert not refreshed.cached

    def test_a_release_stays_replayable_behind_5000_newer_ones(self, service):
        """ε is not renewable: the free replay must not lapse after a few
        seconds of traffic (4 096 entries were ≈ 5 s at 900 requests/s, and
        65 536 were ≈ 56 s at 1 170, under the client's 60 s timeout)."""
        assert service.cache.stats()["max_entries"] == 131072
        service.create_session("demo", EDGES, seed=0)
        epsilons = [0.01 + 1e-6 * index for index in range(5000)]
        first = service.measure("demo", "node-count", epsilons[0])
        for epsilon in epsilons[1:]:
            assert not service.measure("demo", "node-count", epsilon).cached
        stats = service.cache.stats()
        assert (stats["size"], stats["evictions"]) == (5000, 0)
        spent = service.budget_report("demo")["edges"]["spent"]

        replay = service.measure("demo", "node-count", epsilons[0])
        assert replay.cached is True
        assert replay.charged == {}
        assert list(replay.result.items()) == list(first.result.items())
        assert service.budget_report("demo")["edges"]["spent"] == spent
        assert service.stats()["exact"]["computed"] == 1

    def test_exhausted_budget_still_replays_released_answers(self, service):
        service.create_session("tiny", EDGES, total_epsilon=0.1, seed=0)
        first = service.measure("tiny", "node-count", 0.1)
        with pytest.raises(BudgetExceededError):
            service.measure("tiny", "node-count", 0.05)
        replay = service.measure("tiny", "node-count", 0.1)
        assert replay.cached and replay.result is first.result


# ----------------------------------------------------------------------
# Fusion
# ----------------------------------------------------------------------
class TestRetainedPerRequest:
    def test_a_fresh_request_leaves_little_behind(self, service):
        """What a fresh-ε request leaves behind — the released answer, its
        cache entry, an audit row (whose JSON text the ``json`` module
        allocates), a ledger history line — is all the server's memory that
        grows with requests, now that none of them evaluates anything.
        Measured ≈ 800 B here (≈ 1 900 B before); the ceiling is loose."""
        import gc
        import tracemalloc

        service.create_session("demo", EDGES, seed=0)
        queries = ["degree-ccdf", "node-count", "wedges"]
        sent = iter(range(1, 10**6))

        def run(count):
            for _, index in zip(range(count), sent):
                service.measure("demo", queries[index % 3], 0.01 + 1e-6 * index)

        run(200)  # first touches, cache and table growth
        only_repro = [
            tracemalloc.Filter(True, "*/src/repro/*"),
            tracemalloc.Filter(True, "*/json/*"),
        ]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot().filter_traces(only_repro)
            run(2000)
            gc.collect()
            after = tracemalloc.take_snapshot().filter_traces(only_repro)
        finally:
            tracemalloc.stop()
        retained = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
        assert 0 < retained / 2000 <= 1300


class TestFusion:
    def _forced_batch(self, service, session_name, requests):
        """Submit ``requests`` while draining is held, so they all land in
        one fused drain batch."""
        futures = []
        with service.scheduler.hold_batches(session_name):
            for query, epsilon in requests:
                futures.append(service.submit(session_name, query, epsilon))
        return futures

    def test_concurrent_requests_fuse_into_one_batch(self, service):
        service.create_session("demo", EDGES, seed=0)
        requests = [("node-count", 0.1), ("degree-ccdf", 0.1), ("wedges", 0.1)]
        futures = self._forced_batch(service, "demo", requests)
        answers = [future.result(timeout=30) for future in futures]
        assert all(not answer.cached for answer in answers)
        # All three executed in one fused executor pass.
        assert {answer.batch_size for answer in answers} == {3}
        assert service.stats()["largest_batch"] >= 3

    def test_identical_concurrent_requests_collapse_to_one_charge(self, service):
        service.create_session("demo", EDGES, total_epsilon=1.0, seed=0)
        futures = self._forced_batch(
            service, "demo", [("node-count", 0.1)] * 4
        )
        answers = [future.result(timeout=30) for future in futures]
        results = {id(answer.result) for answer in answers}
        assert len(results) == 1  # everyone got the single released answer
        assert sum(bool(answer.charged) for answer in answers) == 1
        assert service.budget_report("demo")["edges"]["spent"] == pytest.approx(0.1)

    def test_fused_equals_sequential_under_fixed_seed(self):
        """A fused batch releases bit-identical noisy values to sequential
        execution of the same requests, in submission order, under one seed."""
        requests = [
            ("node-count", 0.1),
            ("degree-ccdf", 0.15),
            ("wedges", 0.1),
            ("degree-sequence", 0.2),
        ]

        sequential = MeasurementService()
        try:
            sequential.create_session("demo", EDGES, seed=42)
            expected = [
                dict(sequential.measure("demo", query, epsilon).result.items())
                for query, epsilon in requests
            ]
        finally:
            sequential.shutdown()

        fused = MeasurementService()
        try:
            fused.create_session("demo", EDGES, seed=42)
            futures = TestFusion._forced_batch(
                self, fused, "demo", requests
            )
            got = [dict(f.result(timeout=30).result.items()) for f in futures]
            assert any(f.result().batch_size > 1 for f in futures)
        finally:
            fused.shutdown()

        assert got == expected

    def test_budget_refusal_only_fails_the_offending_request(self, service):
        """A fused batch whose total cost is unaffordable retries its
        requests individually: innocent co-batched measurements succeed."""
        probe = MeasurementService()
        try:
            probe.create_session("probe", EDGES, seed=0)
            cost_nc = probe.session("probe").queryable("node-count").privacy_cost(0.1)
            cost_dc = probe.session("probe").queryable("degree-ccdf").privacy_cost(0.2)
        finally:
            probe.shutdown()
        # node-count alone fits; adding degree-ccdf overruns the total.
        total = cost_nc["edges"] + cost_dc["edges"] / 2.0

        service.create_session("demo", EDGES, total_epsilon=total, seed=0)
        futures = self._forced_batch(
            service, "demo", [("node-count", 0.1), ("degree-ccdf", 0.2)]
        )
        ok = futures[0].result(timeout=30)
        assert ok.charged == {"edges": pytest.approx(cost_nc["edges"])}
        with pytest.raises(BudgetExceededError):
            futures[1].result(timeout=30)
        refused = [e.action for e in service.audit("demo")]
        assert "refused" in refused
        spent = service.budget_report("demo")["edges"]["spent"]
        assert spent == pytest.approx(cost_nc["edges"])


# ----------------------------------------------------------------------
# Where a measurement runs
# ----------------------------------------------------------------------
class TestCallerThread:
    def test_a_measure_runs_on_the_thread_that_submitted_it(
        self, service, monkeypatch
    ):
        from repro.core.queryable import PrivacySession

        service.create_session("demo", EDGES, seed=0)
        ran_on = []
        measure = PrivacySession.measure

        def spy(session, *specs, **kwargs):
            ran_on.append(threading.get_ident())
            return measure(session, *specs, **kwargs)

        monkeypatch.setattr(PrivacySession, "measure", spy)
        future = service.submit("demo", "node-count", 0.1)
        assert future.done()
        assert ran_on == [threading.get_ident()]
        assert not future.result().cached

    def test_racing_submitters_each_return_with_their_answer(self, service):
        """Whichever thread runs a batch, every submitter's own request is
        answered by the time its submit returns, and charged exactly once."""
        service.create_session("demo", EDGES, seed=0)
        threads, per_thread = 8, 25
        unresolved, charged = [], []
        barrier = threading.Barrier(threads, timeout=30)

        def work(index):
            barrier.wait()
            for step in range(per_thread):
                epsilon = 0.001 * (1 + index * per_thread + step)
                future = service.submit("demo", "node-count", epsilon)
                if future.done():
                    charged.append(sum(future.result().charged.values()))
                else:
                    unresolved.append(epsilon)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert unresolved == []
        assert len(charged) == threads * per_thread
        spent = service.budget_report("demo")["edges"]["spent"]
        assert spent == pytest.approx(sum(charged))
        assert service.stats()["requests"] == threads * per_thread


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_full_queue_rejects_new_submissions(self):
        service = MeasurementService(max_pending=2)
        try:
            service.create_session("demo", EDGES, seed=0)
            futures = []
            with service.scheduler.hold_batches("demo"):
                with pytest.raises(ServiceOverloadedError):
                    # Distinct epsilons so nothing is served from the cache;
                    # draining is held, so the queue must overflow exactly at
                    # max_pending submissions.
                    for index in range(6):
                        futures.append(
                            service.submit("demo", "node-count", 0.01 + index * 0.001)
                        )
            assert len(futures) == 2  # max_pending accepted, the third refused
            for future in futures:
                future.result(timeout=30)
        finally:
            service.shutdown()


# ----------------------------------------------------------------------
# Concurrent serving stress
# ----------------------------------------------------------------------
class TestConcurrentServing:
    def test_interleaved_measurements_never_overspend(self):
        """N threads hammer shared and distinct sessions with interleaved
        measurements: no budget overspends, accounting stays exact, and
        repeated questions are answered from the cache without new charges."""
        service = MeasurementService(max_pending=1024)
        threads = 12
        per_thread = 10
        epsilon = 0.01
        try:
            service.create_session("shared-a", EDGES, total_epsilon=0.5, seed=1)
            service.create_session("shared-b", EDGES, total_epsilon=0.25, seed=2)
            for index in range(threads):
                service.create_session(
                    f"own-{index}", EDGES, total_epsilon=0.05, seed=3 + index
                )

            barrier = threading.Barrier(threads)
            errors: list[BaseException] = []

            def work(index: int) -> None:
                barrier.wait()
                try:
                    for step in range(per_thread):
                        # Distinct epsilon per (thread, step): every shared-
                        # session request is a genuinely new measurement.
                        eps = epsilon * (1 + index * per_thread + step)
                        for name in ("shared-a", "shared-b", f"own-{index}"):
                            try:
                                service.measure(name, "node-count", eps)
                            except BudgetExceededError:
                                pass
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            pool = [
                threading.Thread(target=work, args=(index,))
                for index in range(threads)
            ]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
            assert not errors, f"worker raised: {errors[0]!r}"

            slack = 1e-9
            for name in (
                ["shared-a", "shared-b"] + [f"own-{i}" for i in range(threads)]
            ):
                report = service.budget_report(name)["edges"]
                assert report["spent"] <= report["total"] + slack
                # Ledger history must exactly account for the spend.
                ledger = service.session(name).session.ledger
                history = ledger.budget_for("edges").history()
                assert report["spent"] == pytest.approx(
                    sum(amount for amount, _ in history)
                )

            # Repeated identical questions replay released answers for free
            # (a fresh session: the hammered ones may be exhausted by now).
            service.create_session("replay", EDGES, total_epsilon=0.01, seed=99)
            first = service.measure("replay", "degree-ccdf", 0.001)
            again = service.measure("replay", "degree-ccdf", 0.001)
            assert again.result is first.result
            assert service.budget_report("replay")["edges"]["spent"] == (
                pytest.approx(0.001)
            )
        finally:
            service.shutdown()
