"""Crash-recovery tests: SIGKILL a process mid-charge, reopen, verify.

The guarantee under test is the acceptance criterion of the durable ledger:
after ``kill -9`` at any point — including inside a charge's transaction,
before its commit, and during a concurrent charge storm — the reopened
ledger recovers exactly the committed spends.  No acknowledged
charge is ever lost (never under-counts released ε) and no unacknowledged
charge is ever counted (no phantom spend).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.persistence import LedgerStore

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="requires POSIX signals"
)

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _run_child(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_sigkill_between_intent_and_commit_drops_the_charge(tmp_path):
    """A charge whose transaction never committed is not recovered.

    The child durably commits one charge of 0.3, then starts a second charge
    of 0.4 under a ``wal.intent_commit`` kill fault — the process dies
    inside the charge's transaction, holding the write lock.  Recovery must
    read spent == 0.3 exactly: the 0.4 was never acknowledged, so no answer
    for it was ever released.
    """
    path = tmp_path / "ledger.db"
    child = _run_child(
        """
        import sys
        from repro.persistence import LedgerStore
        from repro.resilience.faults import activate, parse_plan

        store = LedgerStore(sys.argv[1])
        store.register("acme", "edges", 2.0)
        store.charge("acme", {"edges": 0.3})  # committed
        activate(parse_plan("wal.intent_commit:kill"))
        store.charge("acme", {"edges": 0.4})  # never committed
        raise SystemExit("unreachable: the kill fault ended the process")
        """,
        str(path),
    )
    assert child.returncode == -signal.SIGKILL, child.stderr

    # The kernel released the dead child's hold on the file: it reopens.
    with LedgerStore(path) as store:
        assert store.spent("acme") == {"edges": 0.3}
    # A second recovery reads the same spend...
    with LedgerStore(path) as store:
        assert store.spent("acme") == {"edges": 0.3}
        # ...and the recovered ledger keeps enforcing the original total.
        store.charge("acme", {"edges": 1.7})
        from repro.exceptions import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            store.charge("acme", {"edges": 0.2})


def test_sigkill_during_concurrent_charge_storm_recovers_committed_spend(tmp_path):
    """kill -9 during a multi-threaded charge storm loses no acknowledged ε.

    The child hammers the store from several threads, appending one line to
    an ack file (flushed and fsynced) *after* each charge returns — i.e.
    after its commit record is durable.  The parent kills it mid-storm.
    Recovered spend must be at least the acknowledged sum (no lost charges)
    and an exact multiple of the step (only whole committed charges, no
    torn half-applied ones).
    """
    path = tmp_path / "ledger.db"
    ack_path = tmp_path / "acked.log"
    step = 0.01
    child_code = """
        import sys, threading
        from repro.persistence import LedgerStore

        store = LedgerStore(sys.argv[1])
        store.register("acme", "edges", float("inf"))
        ack = open(sys.argv[2], "a")
        ack_lock = threading.Lock()

        def worker():
            while True:
                store.charge("acme", {"edges": 0.01})
                with ack_lock:
                    ack.write("1\\n")
                    ack.flush()
                    import os
                    os.fsync(ack.fileno())

        for _ in range(4):
            threading.Thread(target=worker, daemon=True).start()
        print("storm started", flush=True)
        threading.Event().wait()
        """
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(child_code), str(path), str(ack_path)],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        assert child.stdout.readline().strip() == "storm started"
        # Let the storm commit a meaningful number of charges, then kill -9.
        deadline_acks = 30
        import time

        for _ in range(200):
            if ack_path.exists() and len(ack_path.read_text().splitlines()) >= deadline_acks:
                break
            time.sleep(0.05)
        os.kill(child.pid, signal.SIGKILL)
        child.wait(timeout=30)
    finally:
        if child.poll() is None:  # pragma: no cover - cleanup on test failure
            child.kill()
            child.wait(timeout=30)
    assert child.returncode == -signal.SIGKILL

    acked = len(ack_path.read_text().splitlines())
    assert acked >= deadline_acks
    with LedgerStore(path) as store:
        recovered = store.spent("acme")["edges"]
    # Every acknowledged charge was committed before its ack line was
    # written, so recovery can never under-count them.
    assert recovered >= acked * step - 1e-9
    # And only whole charges are counted: the recovered spend is an exact
    # multiple of the step (within float accumulation tolerance).
    committed = round(recovered / step)
    assert recovered == pytest.approx(committed * step, abs=1e-9)
    # The gap between acked and committed is at most the number of threads
    # (each can have one in-flight charge past its commit but short of its
    # ack when the SIGKILL lands).
    assert committed - acked <= 4


def test_orderly_close_leaves_no_unresolved_intents(tmp_path):
    """A clean close (the graceful-shutdown path) keeps exactly the spend."""
    path = tmp_path / "ledger.db"
    with LedgerStore(path) as store:
        store.register("acme", "edges", 1.0)
        for _ in range(5):
            store.charge("acme", {"edges": 0.1})
    with LedgerStore(path) as reopened:
        assert reopened.spent("acme")["edges"] == pytest.approx(0.5)
