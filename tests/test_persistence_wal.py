"""Unit and property tests for the durable WAL-backed privacy ledger.

Covers the store primitives (register / charge / abort / snapshot), the
cross-connection visibility that makes multi-process serving sound, the
thread-storm no-overspend guarantee, and a hypothesis property proving that
``replay(snapshot + WAL)`` is extensionally equal to an in-memory
:class:`~repro.core.budget.BudgetLedger` driven by the same charge sequence.
"""

from __future__ import annotations

import os
import sqlite3
import subprocess
import sys
import textwrap
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.budget import BudgetLedger
from repro.exceptions import BudgetExceededError, InvalidEpsilonError
from repro.persistence import DurableLedger, LedgerStore, replay
from repro.persistence.snapshot import LedgerState, state_from_json, state_to_json
from repro.persistence.wal import decode_record, encode_record


_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


@pytest.fixture()
def store(tmp_path):
    store = LedgerStore(tmp_path / "ledger.db")
    yield store
    store.close()


# ----------------------------------------------------------------------
# Store primitives
# ----------------------------------------------------------------------
class TestLedgerStore:
    def test_rejects_in_memory_path(self):
        with pytest.raises(ValueError, match="file path"):
            LedgerStore(":memory:")

    def test_register_and_charge(self, store):
        total, spent = store.register("acme", "edges", 2.0)
        assert (total, spent) == (2.0, 0.0)
        after = store.charge("acme", {"edges": 0.5}, "tbi")
        assert after == {"edges": 0.5}
        assert store.spent("acme") == {"edges": 0.5}

    def test_register_is_idempotent_and_returns_recovered_spend(self, store):
        store.register("acme", "edges", 2.0)
        store.charge("acme", {"edges": 0.75})
        total, spent = store.register("acme", "edges", 2.0)
        assert (total, spent) == (2.0, 0.75)

    def test_conflicting_total_is_refused(self, store):
        store.register("acme", "edges", 2.0)
        with pytest.raises(InvalidEpsilonError, match="conflicting"):
            store.register("acme", "edges", 3.0)

    def test_refusal_durably_aborts_and_charges_nothing(self, store):
        store.register("acme", "edges", 1.0)
        with pytest.raises(BudgetExceededError):
            store.charge("acme", {"edges": 1.5})
        assert store.spent("acme") == {"edges": 0.0}
        # The intents were resolved by an abort row, not left dangling.
        unresolved: dict = {}
        replay(LedgerState(), _wal_rows(store), unresolved)
        assert unresolved == {}

    def test_multi_source_charge_is_atomic(self, store):
        store.register("acme", "edges", 1.0)
        store.register("acme", "nodes", 0.1)
        with pytest.raises(BudgetExceededError):
            store.charge("acme", {"edges": 0.5, "nodes": 0.5})
        assert store.spent("acme") == {"edges": 0.0, "nodes": 0.0}
        store.charge("acme", {"edges": 0.5, "nodes": 0.1})
        assert store.spent("acme") == {"edges": 0.5, "nodes": 0.1}

    def test_scopes_are_namespaced(self, store):
        store.register("a", "edges", 1.0)
        store.register("b", "edges", 2.0)
        store.charge("a", {"edges": 1.0})
        assert store.spent("a") == {"edges": 1.0}
        assert store.spent("b") == {"edges": 0.0}

    def test_infinite_total_round_trips(self, store):
        store.register("acme", "edges", float("inf"))
        store.charge("acme", {"edges": 123.0})
        store.snapshot()
        assert store.spent("acme") == {"edges": 123.0}
        state = store.load_state()
        assert state.budget("acme", "edges").total == float("inf")

    def test_reopen_recovers_exact_state(self, tmp_path):
        path = tmp_path / "ledger.db"
        with LedgerStore(path) as store:
            store.register("acme", "edges", 2.0)
            store.charge("acme", {"edges": 0.25})
            store.charge("acme", {"edges": 0.5})
        with LedgerStore(path) as reopened:
            assert reopened.spent("acme") == {"edges": 0.75}
            total, spent = reopened.register("acme", "edges", 2.0)
            assert (total, spent) == (2.0, 0.75)


# ----------------------------------------------------------------------
# Snapshots and compaction
# ----------------------------------------------------------------------
def _wal_rows(store: LedgerStore):
    with store._mutex:
        return store._conn.execute("SELECT * FROM wal ORDER BY id").fetchall()


class TestSnapshotCompaction:
    def test_compaction_preserves_state(self, store):
        store.register("acme", "edges", 5.0)
        for _ in range(7):
            store.charge("acme", {"edges": 0.25})
        before = store.load_state().report()
        store.snapshot()
        assert store.load_state().report() == before
        # The resolved log prefix was folded away.
        assert store.stats()["wal"] == 0
        assert store.stats()["snapshots"] == 1

    def test_automatic_snapshot_cadence(self, tmp_path):
        with LedgerStore(tmp_path / "ledger.db", snapshot_every=3) as store:
            store.register("acme", "edges", 10.0)
            for _ in range(3):
                store.charge("acme", {"edges": 0.1})
            assert store.stats()["snapshots"] >= 1
            assert store.spent("acme")["edges"] == pytest.approx(0.3)

    def test_compaction_keeps_unresolved_intents(self, store):
        store.register("acme", "edges", 5.0)
        store.charge("acme", {"edges": 1.0})

        # Crash between intent and commit: the intent stays unresolved.
        store.fault_after_intent = lambda: (_ for _ in ()).throw(RuntimeError("boom"))
        with pytest.raises(RuntimeError):
            store.charge("acme", {"edges": 2.0})
        store.fault_after_intent = None

        store.snapshot()
        rows = _wal_rows(store)
        assert [row["kind"] for row in rows] == ["intent"]
        assert store.spent("acme") == {"edges": 1.0}

        # A resolution row arriving later (e.g. from a sibling worker that
        # survived) must still find the intent and apply it.
        with store._mutex:
            store._conn.execute(
                "INSERT INTO wal (txn, kind) VALUES (?, 'commit')", (rows[0]["txn"],)
            )
        assert store.spent("acme") == {"edges": 3.0}

    def test_state_json_round_trip(self):
        state = LedgerState()
        state.ensure("a", "edges", float("inf")).spent = 1.5
        state.ensure("b", "nodes", 2.0).spent = 0.25
        assert state_from_json(state_to_json(state)).report() == state.report()


# ----------------------------------------------------------------------
# Cross-connection visibility (the multi-process model, in one process)
# ----------------------------------------------------------------------
class TestCrossConnection:
    def test_sibling_store_sees_committed_charges(self, tmp_path):
        path = tmp_path / "ledger.db"
        with LedgerStore(path) as a, LedgerStore(path) as b:
            a.register("acme", "edges", 2.0)
            a.charge("acme", {"edges": 0.5})
            assert b.spent("acme") == {"edges": 0.5}
            b.charge("acme", {"edges": 0.5})
            assert a.spent("acme") == {"edges": 1.0}

    def test_siblings_cannot_jointly_overspend(self, tmp_path):
        path = tmp_path / "ledger.db"
        with LedgerStore(path) as a, LedgerStore(path) as b:
            a.register("acme", "edges", 1.0)
            b.register("acme", "edges", 1.0)
            a.charge("acme", {"edges": 0.75})
            # b's affordability check runs against the durable state, which
            # already includes a's charge.
            with pytest.raises(BudgetExceededError):
                b.charge("acme", {"edges": 0.75})
            assert a.spent("acme") == {"edges": 0.75}

    def test_load_state_reads_one_state_while_a_sibling_compacts(
        self, tmp_path, monkeypatch
    ):
        # The snapshot and the log used to be two autocommit reads: a sibling
        # compacting between them moved the log into a snapshot this reader
        # had already passed, and the spend vanished.
        path = tmp_path / "ledger.db"
        with LedgerStore(path) as a, LedgerStore(path) as b:
            b.register("acme", "edges", 5.0)
            b.charge("acme", {"edges": 2.0})
            read_snapshot = a._latest_snapshot

            def compact_after_read():
                head = read_snapshot()
                b.snapshot()
                return head

            monkeypatch.setattr(a, "_latest_snapshot", compact_after_read)
            assert a.spent("acme") == {"edges": 2.0}
            monkeypatch.undo()
            assert b.stats()["wal"] == 0  # the sibling did compact
            assert a.spent("acme") == {"edges": 2.0}

    def test_thread_storm_never_overspends(self, tmp_path):
        store = LedgerStore(tmp_path / "ledger.db", snapshot_every=10)
        store.register("acme", "edges", 1.0)
        successes, refusals = [], []

        def worker():
            for _ in range(10):
                try:
                    store.charge("acme", {"edges": 0.05})
                except BudgetExceededError:
                    refusals.append(1)
                else:
                    successes.append(1)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        store.close()

        # Exactly 20 grants of 0.05 fit in 1.0; everything else refused.
        assert len(successes) == 20
        assert len(refusals) == 60
        with LedgerStore(tmp_path / "ledger.db") as reopened:
            assert reopened.spent("acme")["edges"] == pytest.approx(1.0)


    @pytest.mark.skipif(not hasattr(os, "fork"), reason="requires os.fork")
    def test_siblings_opening_one_new_file_together_all_succeed(self, tmp_path):
        # A fleet's workers all open the fresh ledger at the same moment, and
        # sqlite does not wait for the lock that the switch to WAL needs: one
        # of them used to fail with "database is locked".  Forked openers in
        # a child interpreter, released together, a dozen fresh files.
        script = """
            import multiprocessing, os, sys, time
            from repro.persistence import LedgerStore

            def opener(path, start, outcomes):
                while time.time() < start:
                    pass
                try:
                    LedgerStore(path).close()
                    outcomes.put("ok")
                except Exception as exc:
                    outcomes.put(repr(exc))

            context = multiprocessing.get_context("fork")
            for round_ in range(12):
                path = os.path.join(sys.argv[1], f"ledger-{round_}.db")
                outcomes, start = context.Queue(), time.time() + 0.05
                openers = [
                    context.Process(target=opener, args=(path, start, outcomes))
                    for _ in range(3)
                ]
                for process in openers:
                    process.start()
                print([outcomes.get() for _ in openers])
                for process in openers:
                    process.join()
            """
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(script), str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.splitlines() == [str(["ok"] * 3)] * 12


# ----------------------------------------------------------------------
# DurableLedger: the BudgetLedger drop-in
# ----------------------------------------------------------------------
class TestDurableLedger:
    def test_charge_syncs_memory_to_durable(self, store):
        ledger = DurableLedger(store, "acme")
        ledger.register("edges", 2.0)
        ledger.charge({"edges": 0.5}, "tbi")
        assert ledger.report()["edges"]["spent"] == pytest.approx(0.5)
        assert store.spent("acme") == {"edges": 0.5}

    def test_recovered_spend_is_adopted(self, tmp_path):
        path = tmp_path / "ledger.db"
        with LedgerStore(path) as store:
            ledger = DurableLedger(store, "acme")
            ledger.register("edges", 2.0)
            ledger.charge({"edges": 0.75})
        with LedgerStore(path) as store:
            ledger = DurableLedger(store, "acme")
            budget = ledger.register("edges", 2.0)
            assert budget.spent == pytest.approx(0.75)
            assert any("recovered" in entry[1] for entry in budget.history())
            with pytest.raises(BudgetExceededError):
                ledger.charge({"edges": 1.5})
            ledger.charge({"edges": 1.25})

    def test_durable_refusal_refreshes_memory(self, tmp_path):
        path = tmp_path / "ledger.db"
        with LedgerStore(path) as mine, LedgerStore(path) as sibling:
            ledger = DurableLedger(mine, "acme")
            ledger.register("edges", 1.0)
            # A sibling worker spends concurrently; my in-memory replica is
            # stale, so the pre-check passes but the durable check refuses.
            sibling.register("acme", "edges", 1.0)
            sibling.charge("acme", {"edges": 0.9})
            with pytest.raises(BudgetExceededError):
                ledger.charge({"edges": 0.5})
            assert ledger.report()["edges"]["spent"] == pytest.approx(0.9)

    def test_report_sees_sibling_spends(self, tmp_path):
        path = tmp_path / "ledger.db"
        with LedgerStore(path) as mine, LedgerStore(path) as theirs:
            a = DurableLedger(mine, "acme")
            b = DurableLedger(theirs, "acme")
            a.register("edges", 2.0)
            b.register("edges", 2.0)
            a.charge({"edges": 0.25})
            b.charge({"edges": 0.5})
            assert a.report()["edges"]["spent"] == pytest.approx(0.75)
            assert b.report()["edges"]["spent"] == pytest.approx(0.75)


# ----------------------------------------------------------------------
# Record codec
# ----------------------------------------------------------------------
@given(
    st.recursive(
        st.one_of(st.integers(), st.text(max_size=5), st.booleans()),
        lambda children: st.tuples(children, children),
        max_leaves=8,
    )
)
def test_record_codec_round_trips(record):
    assert decode_record(encode_record(record)) == record


# ----------------------------------------------------------------------
# Property: replay(snapshot + WAL) == in-memory ledger
# ----------------------------------------------------------------------
_SOURCES = ("edges", "nodes")

_ledger_steps = st.lists(
    st.tuples(
        st.sampled_from((0, 1)),  # which of the two stores on one file acts
        st.sampled_from(("charge", "crash", "snapshot")),
        st.sampled_from(_SOURCES),
        st.floats(min_value=0.01, max_value=1.5, allow_nan=False),
    ),
    max_size=25,
)


def _crash_between_intent_and_commit() -> None:
    raise RuntimeError("crash between intent and commit")


def _replayed_from_file(path) -> LedgerState:
    """What a store that has folded nothing reads: a full replay."""
    fresh = LedgerStore(path)
    try:
        return fresh.load_state()
    finally:
        # Not close(): its final compaction would make it one more writer.
        fresh._closed = True
        fresh._conn.close()


@settings(max_examples=40, deadline=None)
@given(
    totals=st.tuples(
        st.floats(min_value=0.5, max_value=4.0, allow_nan=False),
        st.floats(min_value=0.5, max_value=4.0, allow_nan=False),
    ),
    steps=_ledger_steps,
)
def test_replay_matches_in_memory_ledger(tmp_path_factory, totals, steps):
    """Durable replay is extensionally equal to the in-memory ledger.

    The same random charge sequence is applied to a plain BudgetLedger and,
    each charge on either one, to two LedgerStores on one file, with
    snapshots on either store and crashes between intent and commit
    interleaved.  The stores must grant/refuse as the ledger does; after
    every step each store's resumed fold must equal, float for float, a full
    replay by a store that has read nothing; and the spends must match the
    ledger's, including after closing and reopening, i.e. after a full
    recovery.
    """
    path = tmp_path_factory.mktemp("wal") / "ledger.db"
    memory = BudgetLedger()
    stores = [LedgerStore(path, snapshot_every=1000) for _ in range(2)]
    try:
        for source, total in zip(_SOURCES, totals):
            memory.register(source, total)
            for store in stores:
                store.register("scope", source, total)
        for which, action, source, amount in steps:
            store = stores[which]
            if action == "snapshot":
                store.snapshot()
            elif action == "crash":
                store.fault_after_intent = _crash_between_intent_and_commit
                with pytest.raises(RuntimeError):
                    store.charge("scope", {source: amount})
                store.fault_after_intent = None
            else:
                try:
                    memory.charge({source: amount})
                    memory_granted = True
                except BudgetExceededError:
                    memory_granted = False
                try:
                    store.charge("scope", {source: amount})
                    store_granted = True
                except BudgetExceededError:
                    store_granted = False
                assert memory_granted == store_granted
            replayed = _replayed_from_file(path)
            assert [store.load_state() for store in stores] == [replayed, replayed]
        expected = {
            source: report["spent"] for source, report in memory.report().items()
        }
        assert stores[0].spent("scope") == pytest.approx(expected)
    finally:
        for store in stores:
            store.close()
    with LedgerStore(path) as reopened:
        assert reopened.spent("scope") == pytest.approx(expected)


def test_replay_handles_interleaved_transactions():
    """Interleaved rows from two workers replay to the committed subset."""
    rows = [
        {"kind": "register", "txn": "", "scope": "s", "source": "edges", "amount": 10.0},
        {"kind": "intent", "txn": "t1", "scope": "s", "source": "edges", "amount": 1.0},
        {"kind": "intent", "txn": "t2", "scope": "s", "source": "edges", "amount": 2.0},
        {"kind": "commit", "txn": "t2", "scope": "", "source": "", "amount": 0.0},
        {"kind": "intent", "txn": "t3", "scope": "s", "source": "edges", "amount": 4.0},
        {"kind": "abort", "txn": "t1", "scope": "", "source": "", "amount": 0.0},
        # t3 never resolves: the worker died between intent and commit.
    ]
    unresolved: dict = {}
    state = replay(LedgerState(), rows, unresolved)
    assert state.budget("s", "edges").spent == pytest.approx(2.0)
    assert set(unresolved) == {"t3"}
