"""Tests for the concurrent multi-tenant measurement service (repro.service)."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.analyses import NAMED_QUERIES
from repro.exceptions import (
    BudgetExceededError,
    DeadlineExceededError,
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

    def test_in_memory_audit_log_keeps_the_newest_events(self, monkeypatch):
        from repro.service import registry as registry_module

        monkeypatch.setattr(registry_module, "AUDIT_LOG_LIMIT", 3)
        registry = SessionRegistry()
        for index in range(5):
            registry.record(f"s{index % 2}", "note", index=index)
        events = registry.audit()
        assert [event.sequence for event in events] == [3, 4, 5]
        assert [event.detail["index"] for event in events] == [2, 3, 4]
        assert [event.sequence for event in registry.audit("s0")] == [3, 5]
        assert registry.record("s1", "note").sequence == 6

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


class _BlockedMeasure:
    """Holds every ``PrivacySession.measure`` until :meth:`release`.

    ``entered`` is set once the first measure has started, so a test knows
    that request holds its session's lock.
    """

    def __init__(self, monkeypatch):
        from repro.core.queryable import PrivacySession

        self.entered = threading.Event()
        self._released = threading.Event()
        measure = PrivacySession.measure

        def blocked(session, *specs, **kwargs):
            self.entered.set()
            assert self._released.wait(timeout=30)
            return measure(session, *specs, **kwargs)

        monkeypatch.setattr(PrivacySession, "measure", blocked)

    def release(self):
        self._released.set()


def _in_thread(call, *args, **kwargs):
    """Start ``call`` on a thread; the returned function joins it and returns
    what the call returned or the exception it raised."""
    outcome: list = []

    def run():
        try:
            outcome.append(call(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - the test inspects it
            outcome.append(exc)

    thread = threading.Thread(target=run)
    thread.start()

    def finish():
        thread.join(timeout=30)
        assert not thread.is_alive()
        return outcome[0]

    return finish


def _wait_until(predicate, what, timeout=30.0):
    end = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < end, f"timed out waiting for {what}"
        time.sleep(0.001)


def _requests_reached_the_lock(service, count):
    return lambda: service.stats()["requests"] >= count


class TestFusion:
    """Concurrent requests on one session: identical (query, ε) requests are
    charged once, through the cache under the session lock; any other
    request is charged, refused or shed on its own."""

    def test_identical_concurrent_requests_collapse_to_one_charge(
        self, service, monkeypatch
    ):
        service.create_session("demo", EDGES, total_epsilon=1.0, seed=0)
        cost = service.session("demo").queryable("node-count").privacy_cost(0.1)
        blocked = _BlockedMeasure(monkeypatch)
        started = [_in_thread(service.measure, "demo", "node-count", 0.1) for _ in range(4)]
        assert blocked.entered.wait(timeout=30)
        _wait_until(_requests_reached_the_lock(service, 4), "4 requests at the lock")
        blocked.release()
        answers = [finish() for finish in started]
        assert not any(isinstance(answer, BaseException) for answer in answers)
        assert len({id(answer.result) for answer in answers}) == 1
        assert sum(bool(answer.charged) for answer in answers) == 1
        assert sum(answer.cached for answer in answers) == 3
        spent = service.budget_report("demo")["edges"]["spent"]
        assert spent == pytest.approx(cost["edges"])
        assert service.stats()["batches"] == 1

    def test_budget_refusal_only_fails_the_offending_request(
        self, service, monkeypatch
    ):
        """A request waiting behind another is charged, or refused, alone:
        the unaffordable one fails and the affordable one still succeeds."""
        probe = service.create_session("probe", EDGES, seed=0)
        cost_nc = probe.queryable("node-count").privacy_cost(0.1)["edges"]
        cost_dc = probe.queryable("degree-ccdf").privacy_cost(0.2)["edges"]
        # node-count alone fits; adding degree-ccdf overruns the total.
        service.create_session("demo", EDGES, total_epsilon=cost_nc + cost_dc / 2, seed=0)
        blocked = _BlockedMeasure(monkeypatch)
        first = _in_thread(service.measure, "demo", "node-count", 0.1)
        assert blocked.entered.wait(timeout=30)
        second = _in_thread(service.measure, "demo", "degree-ccdf", 0.2)
        _wait_until(_requests_reached_the_lock(service, 2), "2 requests at the lock")
        blocked.release()
        assert first().charged == {"edges": pytest.approx(cost_nc)}
        assert isinstance(second(), BudgetExceededError)
        actions = [event.action for event in service.audit("demo")]
        assert actions == ["create-session", "measure", "refused"]
        spent = service.budget_report("demo")["edges"]["spent"]
        assert spent == pytest.approx(cost_nc)

    def test_a_deadline_that_expires_at_the_lock_is_shed_uncharged(
        self, service, monkeypatch
    ):
        from repro.resilience.deadline import Deadline

        service.create_session("demo", EDGES, seed=0)
        cost = service.session("demo").queryable("node-count").privacy_cost(0.1)
        blocked = _BlockedMeasure(monkeypatch)
        first = _in_thread(service.measure, "demo", "node-count", 0.1)
        assert blocked.entered.wait(timeout=30)
        deadline = Deadline.after(0.05)
        late = _in_thread(service.measure, "demo", "node-count", 0.2, deadline=deadline)
        _wait_until(_requests_reached_the_lock(service, 2), "2 requests at the lock")
        _wait_until(deadline.expired, "the waiting request's deadline")
        blocked.release()
        assert not first().cached
        assert isinstance(late(), DeadlineExceededError)
        actions = [event.action for event in service.audit("demo")]
        assert actions == ["create-session", "measure", "deadline-shed"]
        spent = service.budget_report("demo")["edges"]["spent"]
        assert spent == pytest.approx(cost["edges"])
        assert service.stats()["batches"] == 1


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
        answer = service.scheduler.submit("demo", "node-count", 0.1)
        assert ran_on == [threading.get_ident()]
        assert not answer.cached

    def test_racing_submitters_each_return_with_their_answer(self, service):
        """Every submitter's own request is answered by the time its submit
        returns, and charged exactly once."""
        service.create_session("demo", EDGES, seed=0)
        threads, per_thread = 8, 25
        charged = []
        barrier = threading.Barrier(threads, timeout=30)

        def work(index):
            barrier.wait()
            for step in range(per_thread):
                epsilon = 0.001 * (1 + index * per_thread + step)
                answer = service.scheduler.submit("demo", "node-count", epsilon)
                charged.append(sum(answer.charged.values()))

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
        assert len(charged) == threads * per_thread
        spent = service.budget_report("demo")["edges"]["spent"]
        assert spent == pytest.approx(sum(charged))
        stats = service.stats()
        assert stats["requests"] == stats["batches"] == threads * per_thread


# ----------------------------------------------------------------------
# Backpressure, load shedding and shutdown
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_full_queue_rejects_new_submissions(self, monkeypatch):
        service = MeasurementService(max_pending=2)
        try:
            service.create_session("demo", EDGES, seed=0)
            blocked = _BlockedMeasure(monkeypatch)
            # Distinct epsilons so nothing is served from the cache.
            first = _in_thread(service.measure, "demo", "node-count", 0.01)
            assert blocked.entered.wait(timeout=30)
            second = _in_thread(service.measure, "demo", "node-count", 0.02)
            _wait_until(_requests_reached_the_lock(service, 2), "2 requests at the lock")
            with pytest.raises(ServiceOverloadedError, match="limit 2"):
                service.measure("demo", "node-count", 0.03)
            blocked.release()
            for finish in (first, second):
                answer = finish()
                assert answer.charged and not answer.cached
            assert service.stats()["requests"] == 2
        finally:
            service.shutdown()

    def test_shedder_slots_are_released_on_every_exit_path(self, monkeypatch):
        from repro.exceptions import InvalidEpsilonError
        from repro.resilience.deadline import Deadline

        service = MeasurementService(max_total_pending=8)
        try:
            hosted = service.create_session("demo", EDGES, total_epsilon=0.5, seed=0)
            query = hosted.queryable("node-count")

            def pending():
                return service.stats()["load_shedding"]["pending"]

            service.measure("demo", "node-count", 0.1)  # success
            assert pending() == 0
            assert service.measure("demo", "node-count", 0.1).cached  # cache hit
            assert pending() == 0
            with pytest.raises(BudgetExceededError):
                service.measure("demo", "node-count", 5.0)
            assert pending() == 0
            with pytest.raises(InvalidEpsilonError):
                service.measure("demo", "node-count", -1.0)  # a plan error
            assert pending() == 0

            blocked = _BlockedMeasure(monkeypatch)
            first = _in_thread(service.measure, "demo", "node-count", 0.2)
            assert blocked.entered.wait(timeout=30)
            deadline = Deadline.after(0.05)
            shed = _in_thread(service.measure, "demo", "node-count", 0.3, deadline=deadline)
            _wait_until(lambda: pending() == 2, "two requests holding slots")
            _wait_until(deadline.expired, "the waiting request's deadline")
            blocked.release()
            assert not first().cached
            assert isinstance(shed(), DeadlineExceededError)  # deadline shed
            assert pending() == 0
            assert service.stats()["load_shedding"]["shed"] == 0
            spent = service.budget_report("demo")["edges"]["spent"]
            charged = [query.privacy_cost(epsilon)["edges"] for epsilon in (0.1, 0.2)]
            assert spent == pytest.approx(sum(charged))
        finally:
            service.shutdown()

    def test_a_request_admitted_before_shutdown_finishes_before_the_store_closes(
        self, tmp_path, monkeypatch
    ):
        from repro.resilience.deadline import Deadline

        ledger = str(tmp_path / "ledger.db")
        service = MeasurementService(ledger_path=ledger)
        service.create_session("demo", EDGES, seed=0)
        events = []
        put_release, close = service.store.put_release, service.store.close
        monkeypatch.setattr(
            service.store, "put_release",
            lambda *args: (events.append("released"), put_release(*args))[1],
        )
        monkeypatch.setattr(
            service.store, "close", lambda: (events.append("closed"), close())[1]
        )
        blocked = _BlockedMeasure(monkeypatch)
        admitted = _in_thread(service.measure, "demo", "node-count", 0.1)
        assert blocked.entered.wait(timeout=30)
        stopping = threading.Thread(target=service.shutdown)
        stopping.start()

        def refused_as_closed():
            # An already-expired deadline is refused after the closed check,
            # so this probe never waits on the lock and never charges.
            try:
                service.measure("demo", "node-count", 0.2, deadline=Deadline.after(0))
            except ServiceOverloadedError:
                return True
            except DeadlineExceededError:
                return False

        _wait_until(refused_as_closed, "shutdown to close admission")
        stopping.join(timeout=0.1)
        assert stopping.is_alive()  # waiting for the admitted request
        blocked.release()
        answer = admitted()
        stopping.join(timeout=30)
        assert not stopping.is_alive()
        assert events == ["released", "closed"]
        assert answer.charged and not answer.cached

        reopened = MeasurementService(ledger_path=ledger)
        try:
            spent = reopened.budget_report("demo")["edges"]["spent"]
            assert spent == pytest.approx(sum(answer.charged.values()))
            assert reopened.measure("demo", "node-count", 0.1).cached
        finally:
            reopened.shutdown()


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
