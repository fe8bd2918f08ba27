"""Deterministic fault injection: rules, plans, grammar, activation."""

from __future__ import annotations

import random
import time

import pytest

from repro.exceptions import FaultInjectedError
from repro.resilience.faults import (
    ENV_VAR,
    INJECTION_POINTS,
    FaultPlan,
    FaultRule,
    activate,
    active_plan,
    current_plan,
    deactivate,
    inject,
    install_from_env,
    parse_plan,
)


class TestFaultRule:
    def test_rejects_unknown_point(self):
        with pytest.raises(ValueError, match="unknown injection point"):
            FaultRule("wal.no_such_point", "fail")

    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule("wal.pre_commit", "explode")

    def test_delay_requires_positive_duration(self):
        with pytest.raises(ValueError, match="positive duration"):
            FaultRule("wal.pre_commit", "delay", value=0.0)

    def test_after_and_every_schedule(self):
        rule = FaultRule("pool.dispatch", "fail", after=3, every=2)
        fired = [rule.should_fire(seed=0, hit=hit) for hit in range(1, 9)]
        assert fired == [False, False, True, False, True, False, True, False]

    def test_probability_is_seed_deterministic(self):
        rule = FaultRule("http.write", "fail", probability=0.5)
        first = [rule.should_fire(seed=7, hit=hit) for hit in range(1, 200)]
        second = [rule.should_fire(seed=7, hit=hit) for hit in range(1, 200)]
        assert first == second
        assert any(first) and not all(first)
        other_seed = [rule.should_fire(seed=8, hit=hit) for hit in range(1, 200)]
        assert other_seed != first


class TestFaultPlan:
    def test_limit_caps_firings(self):
        plan = FaultPlan(seed=0, rules=[FaultRule("pool.dispatch", "fail", limit=2)])
        outcomes = [plan.on_hit("pool.dispatch") for _ in range(5)]
        assert [outcome is not None for outcome in outcomes] == [
            True, True, False, False, False,
        ]
        assert plan.stats()["fired"]["pool.dispatch"] == 2
        assert plan.stats()["hits"]["pool.dispatch"] == 5

    def test_untargeted_points_are_counted_but_never_fire(self):
        plan = FaultPlan(seed=0, rules=[FaultRule("wal.pre_commit", "fail")])
        assert plan.on_hit("wal.post_commit") is None
        assert plan.stats()["hits"]["wal.post_commit"] == 1

    def test_env_round_trip(self):
        plan = FaultPlan(
            seed=42,
            rules=[
                FaultRule("wal.intent_commit", "kill", after=2),
                FaultRule("pool.dispatch", "delay", value=0.05, every=4),
                FaultRule("http.write", "fail", probability=0.2, limit=3),
            ],
        )
        parsed = parse_plan(plan.to_env())
        assert parsed.seed == 42
        assert {
            point: rule.spec() for point, rule in parsed.rules.items()
        } == {point: rule.spec() for point, rule in plan.rules.items()}

    def test_a_second_rule_for_one_point_is_refused(self):
        text = "wal.pre_commit:kill@after=3;wal.pre_commit:fail@every=2"
        with pytest.raises(ValueError, match="wal.pre_commit"):
            parse_plan(text)
        with pytest.raises(ValueError, match="wal.pre_commit"):
            install_from_env({ENV_VAR: text})
        assert current_plan() is None

    def test_chaos_plans_draw_at_most_one_rule_per_point(self):
        from repro.resilience.chaos import _random_plan, _subprocess_faults

        for seed in range(200):
            rng = random.Random(seed)
            _random_plan(rng, seed)
            for ops in (0, 1, 5):
                _subprocess_faults(rng, seed, ops)

    def test_parse_rejects_malformed_entries(self):
        with pytest.raises(ValueError, match="malformed fault entry"):
            parse_plan("seed=1;just-a-point")


class TestActivation:
    def test_inject_is_a_noop_without_a_plan(self):
        assert current_plan() is None
        inject("wal.pre_commit")  # must not raise

    def test_fail_action_raises_with_point_and_code(self):
        plan = FaultPlan(seed=0, rules=[FaultRule("wal.pre_commit", "fail")])
        with active_plan(plan):
            with pytest.raises(FaultInjectedError) as info:
                inject("wal.pre_commit")
        assert info.value.point == "wal.pre_commit"
        assert info.value.code == "fault_injected"
        assert info.value.retryable is True

    def test_delay_action_sleeps(self):
        plan = FaultPlan(seed=0, rules=[FaultRule("shm.unlink", "delay", value=0.05)])
        with active_plan(plan):
            started = time.monotonic()
            inject("shm.unlink")
            assert time.monotonic() - started >= 0.04

    def test_active_plan_restores_previous(self):
        outer = FaultPlan(seed=1)
        inner = FaultPlan(seed=2)
        with active_plan(outer):
            with active_plan(inner):
                assert current_plan() is inner
            assert current_plan() is outer
        assert current_plan() is None

    def test_activate_deactivate(self):
        plan = activate(FaultPlan(seed=3))
        try:
            assert current_plan() is plan
        finally:
            deactivate()
        assert current_plan() is None

    def test_install_from_env(self):
        plan = install_from_env({ENV_VAR: "seed=9;wal.pre_commit:fail@limit=1"})
        try:
            assert plan is not None and plan.seed == 9
            assert current_plan() is plan
        finally:
            deactivate()

    def test_install_from_env_without_variable(self):
        assert install_from_env({}) is None

    def test_every_registered_point_is_documented(self):
        assert set(INJECTION_POINTS) == {
            "wal.intent_commit",
            "wal.pre_commit",
            "wal.post_commit",
            "pool.dispatch",
            "pool.heartbeat",
            "pool.worker",
            "shm.attach",
            "shm.unlink",
            "http.read",
            "http.write",
        }
        assert all(INJECTION_POINTS.values())
