"""The randomized-schedule chaos harness and its four invariants.

Each ``run_chaos`` campaign drives a live service under seed-deterministic
fault schedules and asserts, per run:

* no lost or phantom epsilon after the ledger is reopened,
* zero orphaned /dev/shm segments,
* the service and pool never wedge (liveness),
* every acknowledged answer replays bit-identically without a second charge.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ChaosInvariantError
from repro.resilience.chaos import ChaosReport, run_chaos


class TestChaosReport:
    def test_ok_and_raise_if_violated(self):
        clean = ChaosReport(seed=1, steps=1, mode="in-process[eager]")
        assert clean.ok
        clean.raise_if_violated()

        broken = ChaosReport(
            seed=1,
            steps=1,
            mode="in-process[eager]",
            violations=["lost ε: durable spend below acknowledged charges"],
        )
        assert not broken.ok
        with pytest.raises(ChaosInvariantError, match="lost ε"):
            broken.raise_if_violated()
        assert "INVARIANT VIOLATIONS" in broken.summary()

    def test_rejects_degenerate_step_counts(self):
        with pytest.raises(ValueError, match="at least 1 step"):
            run_chaos(seed=0, steps=0)


class TestInProcessChaos:
    def test_fifty_randomized_schedules_hold_all_invariants(self):
        report = run_chaos(seed=1234, steps=50)
        report.raise_if_violated()
        assert report.ops == 50
        # Every op is classified exactly once.
        assert (
            report.acked + report.failed + report.refused + report.cached_hits
            == report.ops
        )
        assert report.acked > 0  # the campaign exercised real charges

    def test_a_second_seed_reaches_the_failure_paths(self):
        report = run_chaos(seed=7, steps=30)
        report.raise_if_violated()
        assert report.ops == 30
        assert report.failed + report.refused > 0  # faults actually fired

    def test_sharded_executor_exercises_pool_and_shm_points(self):
        report = run_chaos(seed=5, steps=12, executor="sharded")
        report.raise_if_violated()
        assert report.ops == 12
        assert "sharded" in report.mode


    def test_an_operation_past_the_liveness_bound_is_a_violation(self, monkeypatch):
        """The harness keeps the liveness clock itself: a charge delayed past
        it is reported as stuck, and the campaign stops there."""
        from repro.resilience import chaos
        from repro.resilience.faults import FaultPlan, FaultRule

        delay = FaultRule("wal.intent_commit", "delay", value=1.0, limit=1)
        monkeypatch.setattr(chaos, "_LIVENESS_TIMEOUT", 0.2)
        monkeypatch.setattr(
            chaos, "_random_plan", lambda rng, plan_seed: FaultPlan(rules=[delay])
        )
        report = run_chaos(seed=3, steps=5)
        assert report.ops == 1
        (violation,) = report.violations
        assert violation.startswith("liveness: step 0") and "stuck" in violation


class TestSubprocessChaos:
    def test_kill_cycles_hold_all_invariants(self, monkeypatch):
        # The server's stdout is a pipe: its banner must be flushed by the
        # server itself, not by the environment.
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        report = run_chaos(seed=11, steps=16, kill_cycles=True)
        report.raise_if_violated()
        assert report.ops == 16
        assert report.mode == "subprocess[kill-cycles]"
        # Every op is a fresh ε, so each one is charged, not replayed.
        assert report.cached_hits == 0
        assert report.kills_fired == report.kills_scheduled

    def test_a_server_without_a_banner_fails_instead_of_hanging(self):
        import subprocess
        import sys

        from repro.resilience.chaos import _read_banner

        silent = subprocess.Popen(
            [sys.executable, "-c", "import time; print('warming up', flush=True); time.sleep(60)"],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            with pytest.raises(RuntimeError, match="no banner within 0.5s"):
                _read_banner(silent, timeout=0.5)
        finally:
            silent.kill()
            silent.wait(timeout=30)
        exited = subprocess.Popen(
            [sys.executable, "-c", "pass"], stdout=subprocess.PIPE, text=True
        )
        with pytest.raises(RuntimeError, match="exited"):
            _read_banner(exited, timeout=60.0)
        exited.wait(timeout=30)
