"""Retry backoff and the circuit breaker state machine."""

from __future__ import annotations

import pytest

from repro.exceptions import CircuitOpenError, PersistenceError, PlanError
from repro.resilience.deadline import Deadline, deadline_scope
from repro.resilience.policy import (
    CircuitBreaker,
    RetryPolicy,
    seeded_jitter,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestSeededJitter:
    def test_deterministic_and_in_range(self):
        values = [seeded_jitter(7, "ledger", attempt) for attempt in range(64)]
        assert values == [seeded_jitter(7, "ledger", attempt) for attempt in range(64)]
        assert all(0.0 <= value < 1.0 for value in values)

    def test_key_and_seed_sensitivity(self):
        assert seeded_jitter(1, "a", 1) != seeded_jitter(2, "a", 1)
        assert seeded_jitter(1, "a", 1) != seeded_jitter(1, "b", 1)


class TestRetryPolicy:
    def test_backoff_is_capped_exponential_with_bounded_jitter(self):
        policy = RetryPolicy(
            retries=5, base_delay=0.1, max_delay=0.4, multiplier=2.0, jitter=0.5, seed=3
        )
        raw = [0.1, 0.2, 0.4, 0.4]
        for attempt, base in enumerate(raw, start=1):
            delay = policy.backoff(attempt, key="k")
            assert base * 0.75 <= delay <= base * 1.25
        assert [policy.backoff(n, key="k") for n in range(1, 5)] == [
            policy.backoff(n, key="k") for n in range(1, 5)
        ]

    def test_retries_retryable_failures_then_succeeds(self):
        sleeps = []
        attempts = []
        policy = RetryPolicy(retries=3, base_delay=0.01, seed=0, sleep=sleeps.append)

        def flaky():
            attempts.append(True)
            if len(attempts) < 3:
                raise PersistenceError("ledger busy")  # retryable=True
            return "ok"

        assert policy.call(flaky) == "ok"
        assert len(attempts) == 3
        assert len(sleeps) == 2

    def test_non_retryable_failures_raise_immediately(self):
        policy = RetryPolicy(retries=3, base_delay=0.01, sleep=lambda _s: None)
        calls = []

        def bad():
            calls.append(True)
            raise PlanError("malformed")  # retryable=False

        with pytest.raises(PlanError):
            policy.call(bad)
        assert len(calls) == 1

    def test_exhausted_retries_reraise_last_error(self):
        policy = RetryPolicy(retries=2, base_delay=0.0, jitter=0.0, sleep=lambda _s: None)
        calls = []

        def always_down():
            calls.append(True)
            raise PersistenceError("down")

        with pytest.raises(PersistenceError):
            policy.call(always_down)
        assert len(calls) == 3

    def test_deadline_too_close_for_backoff_raises(self):
        policy = RetryPolicy(
            retries=5, base_delay=10.0, jitter=0.0, sleep=lambda _s: None
        )
        calls = []

        def always_down():
            calls.append(True)
            raise PersistenceError("down")

        with deadline_scope(Deadline.after(0.05)):
            with pytest.raises(PersistenceError):
                policy.call(always_down)
        assert len(calls) == 1

    def test_on_retry_observer_sees_attempt_and_delay(self):
        seen = []
        policy = RetryPolicy(
            retries=2,
            base_delay=0.25,
            jitter=0.0,
            sleep=lambda _s: None,
        )
        state = {"n": 0}

        def once():
            state["n"] += 1
            if state["n"] == 1:
                raise PersistenceError("blip")
            return state["n"]

        assert (
            policy.call(once, on_retry=lambda exc, n, d: seen.append((n, d))) == 2
        )
        assert seen == [(1, 0.25)]


class TestCircuitBreaker:
    def test_opens_after_threshold_and_recovers_via_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, reset_after=5.0, clock=clock, name="wal")
        for _ in range(2):
            assert breaker.record_failure() is False
        assert breaker.state == "closed"
        assert breaker.record_failure() is True
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(5.0)

        clock.advance(5.0)
        assert breaker.state == "half-open"
        assert breaker.allow()  # claims the single probe slot
        assert not breaker.allow()  # concurrent request is refused
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_probe_restarts_full_window(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, reset_after=4.0, clock=clock)
        breaker.record_failure()
        clock.advance(4.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.retry_after() == pytest.approx(4.0)

    def test_check_raises_circuit_open_with_retry_after(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, reset_after=7.0, clock=clock, name="pool")
        breaker.record_failure()
        with pytest.raises(CircuitOpenError) as info:
            breaker.check()
        assert info.value.code == "circuit_open"
        assert info.value.retryable is True
        assert info.value.retry_after == pytest.approx(7.0)

    def test_success_resets_consecutive_failure_count(self):
        breaker = CircuitBreaker(threshold=2, reset_after=1.0, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_stats_shape(self):
        breaker = CircuitBreaker(threshold=1, reset_after=2.0, clock=FakeClock(), name="x")
        breaker.record_failure()
        stats = breaker.stats()
        assert stats["name"] == "x"
        assert stats["state"] == "open"
        assert stats["opened_total"] == 1
        assert stats["retry_after"] == pytest.approx(2.0)
