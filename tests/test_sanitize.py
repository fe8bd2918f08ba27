"""Tests for the runtime lock-order sanitizer (:mod:`repro.sanitize`).

Lock names here are test-unique (the spec registry is process-global and
first-declaration-wins), and every test that forces the sanitizer on
restores the environment-driven default in a ``finally``.
"""

from __future__ import annotations

import threading

import pytest

from repro import sanitize
from repro.sanitize import (
    LockOrderViolation,
    LockSpec,
    declared_locks,
    held_locks,
    ordered_lock,
    ordered_rlock,
)


@pytest.fixture
def sanitized():
    sanitize.enable()
    try:
        yield
    finally:
        sanitize.disable()


def test_disabled_factories_return_plain_primitives(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    sanitize.disable()
    assert sanitize.is_enabled() is False
    lock = ordered_lock("test.plain", 110)
    rlock = ordered_rlock("test.plain.r", 111)
    assert type(lock) is type(threading.Lock())
    assert type(rlock) is type(threading.RLock())
    # Declaration happens regardless, so the static and runtime views of
    # the hierarchy never diverge based on the switch.
    assert declared_locks()["test.plain"] == LockSpec("test.plain", 110)


def test_in_order_acquisition_passes_and_unwinds(sanitized):
    low = ordered_lock("test.inorder.low", 120)
    high = ordered_lock("test.inorder.high", 130)
    with low:
        assert held_locks() == [("test.inorder.low", 120)]
        with high:
            assert held_locks() == [
                ("test.inorder.low", 120),
                ("test.inorder.high", 130),
            ]
    assert held_locks() == []


def test_out_of_order_acquisition_raises(sanitized):
    low = ordered_lock("test.outoforder.low", 140)
    high = ordered_lock("test.outoforder.high", 150)
    with high:
        with pytest.raises(LockOrderViolation) as excinfo:
            low.acquire()
    assert "test.outoforder.low" in str(excinfo.value)
    assert "test.outoforder.high@150" in str(excinfo.value)
    # The failed acquisition must not leave state behind.
    assert held_locks() == []
    assert low.acquire(blocking=False)  # not poisoned
    low.release()


def test_same_level_requires_peers_flag(sanitized):
    # No lock kind licenses a same-level acquisition: there is no peers flag.
    first = ordered_lock("test.samelevel.a", 160)
    second = ordered_lock("test.samelevel.b", 160)
    with first:
        with pytest.raises(LockOrderViolation):
            second.acquire()


def test_reentrant_reacquisition_of_same_instance(sanitized):
    lock = ordered_rlock("test.reentrant", 180)
    with lock:
        with lock:
            assert [name for name, _ in held_locks()].count("test.reentrant") == 2
    assert held_locks() == []


def test_conflicting_redeclaration_raises():
    ordered_lock("test.conflict", 190)
    with pytest.raises(ValueError, match="already declared"):
        ordered_lock("test.conflict", 191)


def test_consistent_redeclaration_is_idempotent():
    ordered_lock("test.idem", 200, io_ok=True)
    ordered_lock("test.idem", 200, io_ok=True)  # same spec: fine


def test_held_stack_is_thread_local(sanitized):
    lock = ordered_lock("test.threadlocal", 210)
    seen: list[list[tuple[str, int]]] = []
    with lock:
        worker = threading.Thread(target=lambda: seen.append(held_locks()))
        worker.start()
        worker.join()
    assert seen == [[]]


def test_repo_hierarchy_is_declared_on_import(sanitized):
    # Constructing real components under the sanitizer exercises the real
    # hierarchy: a multi-source charge checks and debits every budget under
    # the ledger's one lock, which its budgets share, and none of it may
    # violate the declared order.
    from repro.core.budget import BudgetLedger, PrivacyBudget

    ledger = BudgetLedger()
    a = ledger.register("a", 1.0)
    b = ledger.register("b", 1.0)
    ledger.charge({"a": 0.25, "b": 0.25}, "sanitized multi-source charge")
    assert ledger.spent("a") == pytest.approx(0.25)
    assert a._lock is b._lock is ledger._lock
    assert PrivacyBudget(1.0)._lock is not ledger._lock
    declared = declared_locks()
    assert declared["core.ledger"].reentrant
    assert "core.budget" not in declared
    assert held_locks() == []
