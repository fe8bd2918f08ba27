"""AnswerCache under concurrency: releases and replays racing session closes."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.exceptions import ReproError, ServiceError
from repro.service import AnswerCache, MeasurementService

EDGES = [(i, i + 1) for i in range(40)] + [(0, 2), (1, 3)]


class TestAnswerCacheUnits:
    def test_first_release_wins(self):
        cache = AnswerCache()
        plan = object()
        cache.put("s", plan, 0.1, "first")
        cache.put("s", plan, 0.1, "second")
        assert cache.get("s", plan, 0.1) == "first"

    def test_drop_scope_evicts_only_that_scope(self):
        cache = AnswerCache()
        plan = object()
        cache.put("a", plan, 0.1, "a-answer")
        cache.put("b", plan, 0.1, "b-answer")
        assert cache.drop_scope("a") == 1
        assert cache.get("a", plan, 0.1) is None
        assert cache.get("b", plan, 0.1) == "b-answer"

    def test_concurrent_puts_and_drops_never_corrupt(self):
        """Fresh releases, replays, LRU evictions and scope drops racing on
        one service.  The cache keeps no lock of its own: the scheduler
        touches it only under ``service.state``, so nothing raises, and a
        replay returns the release it replays."""
        service = MeasurementService()
        service.cache._max_entries = 64  # evict while the writers run
        try:
            for scope in ("x", "y"):
                service.create_session(scope, EDGES, seed=0)
            stop = threading.Event()
            errors: list[BaseException] = []

            def writer(scope: str) -> None:
                step = 0
                try:
                    while not stop.is_set():
                        epsilon = 0.001 * (1 + step % 96)
                        first = service.measure(scope, "node-count", epsilon)
                        again = service.measure(scope, "node-count", epsilon)
                        assert not again.cached or again.result is first.result
                        step += 1
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            def dropper() -> None:
                try:
                    while not stop.is_set():
                        service.scheduler.forget("x")
                        service.scheduler.forget("y")
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=writer, args=("x",)),
                threading.Thread(target=writer, args=("y",)),
                threading.Thread(target=dropper),
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                threading.Event().wait(0.3)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10)
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors
            assert len(service.cache) <= 64
        finally:
            service.shutdown()


class TestReplayRacingEviction:
    def test_replays_racing_close_session_charge_exactly_once(self):
        """Concurrent replays across scheduler workers while the session is
        closed mid-stream: every successful answer is the single released
        object, every failure is a clean ServiceError, and exactly one
        measure was ever charged."""
        service = MeasurementService()
        try:
            service.create_session("race", EDGES, total_epsilon=5.0, seed=0)
            first = service.measure("race", "node-count", 0.1)
            assert first.charged == {"edges": pytest.approx(0.1)}

            outcomes: list[object] = []
            failures: list[BaseException] = []
            barrier = threading.Barrier(7)

            def replay() -> None:
                barrier.wait()
                for _ in range(40):
                    try:
                        outcomes.append(service.measure("race", "node-count", 0.1))
                    except ReproError as exc:
                        failures.append(exc)
                        return

            def close() -> None:
                barrier.wait()
                threading.Event().wait(0.01)
                service.close_session("race")

            threads = [threading.Thread(target=replay) for _ in range(6)]
            threads.append(threading.Thread(target=close))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)

            for answer in outcomes:
                assert answer.cached is True
                assert answer.charged == {}
                assert answer.result is first.result  # bit-identical replay
            assert all(isinstance(exc, ServiceError) for exc in failures)

            events = service.audit("race")
            measured = [e for e in events if e.action == "measure"]
            assert len(measured) == 1  # the race never charged a second time
            assert measured[0].detail["charged"] == {"edges": pytest.approx(0.1)}
            hits = [e for e in events if e.action == "cache-hit"]
            assert len(hits) == len(outcomes)
        finally:
            service.shutdown()

    def test_recreated_session_never_replays_the_old_scope(self):
        """drop_scope correctness: a same-name session created after a close
        must re-measure (fresh charge), never see the dead scope's answers."""
        service = MeasurementService()
        try:
            service.create_session("reborn", EDGES, total_epsilon=1.0, seed=0)
            old = service.measure("reborn", "node-count", 0.1)
            service.close_session("reborn")

            service.create_session("reborn", EDGES, total_epsilon=1.0, seed=1)
            fresh = service.measure("reborn", "node-count", 0.1)
            assert fresh.cached is False
            assert fresh.charged == {"edges": pytest.approx(0.1)}
            assert fresh.result is not old.result
        finally:
            service.shutdown()
