"""Unit and property tests for the durable sqlite-backed privacy ledger.

Covers the store primitives (register / charge / refusal), the file lock
that makes one store the ledger file's only client, the thread-storm
no-overspend guarantee, the one-time migration of a ledger file written in
the older log format, and a hypothesis property proving that the
``budgets`` table is exactly a plain-Python model and an in-memory
:class:`~repro.core.budget.BudgetLedger` driven by the same charge sequence.
"""

from __future__ import annotations

import json
import sqlite3
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.budget import BudgetLedger
from repro.exceptions import (
    BudgetExceededError,
    FaultInjectedError,
    InvalidEpsilonError,
    PersistenceError,
)
from repro.persistence import DurableLedger, LedgerStore
from repro.persistence.wal import decode_record, encode_record
from repro.resilience.faults import active_plan, parse_plan


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
        after = store.charge("acme", {"edges": 0.5})
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
        # The charge's transaction was rolled back, not left open.
        assert not store._conn.in_transaction

    def test_an_unregistered_source_is_refused_and_writes_nothing(self, store):
        # Like BudgetLedger.charge: a misspelled source is an error, not a
        # new budget at total ∞.
        ledger = DurableLedger(store, "acme")
        ledger.register("edges", 1.0)
        with pytest.raises(InvalidEpsilonError, match="no budget registered"):
            ledger.charge({"edges": 0.25, "egdes": 0.25})
        assert store.load_state() == {"acme": {"edges": (1.0, 0.0)}}
        assert not store._conn.in_transaction

    def test_a_charge_is_one_write_transaction(self, store):
        # Read off the statements sqlite runs: a granted charge and a refused
        # one each begin exactly one transaction, through DurableLedger too.
        ledger = DurableLedger(store, "acme")
        ledger.register("edges", 1.0)
        statements: list[str] = []
        store._conn.set_trace_callback(statements.append)
        store.charge("acme", {"edges": 0.25})
        ledger.charge({"edges": 0.25})
        with pytest.raises(BudgetExceededError):
            store.charge("acme", {"edges": 0.75})
        store._conn.set_trace_callback(None)
        verbs = [statement.split()[0] for statement in statements]
        assert [verb for verb in verbs if verb in ("BEGIN", "COMMIT", "ROLLBACK")] == [
            "BEGIN", "COMMIT", "BEGIN", "COMMIT", "BEGIN", "ROLLBACK",
        ]

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
        assert store.spent("acme") == {"edges": 123.0}
        store.close()
        with LedgerStore(store.path) as reopened:
            assert reopened.load_state() == {"acme": {"edges": (float("inf"), 123.0)}}

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


    def test_thread_storm_never_overspends(self, tmp_path):
        store = LedgerStore(tmp_path / "ledger.db")
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


# ----------------------------------------------------------------------
# One store per file
# ----------------------------------------------------------------------
class TestFileLock:
    def test_a_second_store_on_a_held_file_is_refused(self, store):
        with pytest.raises(PersistenceError, match="held by another open store"):
            LedgerStore(store.path)
        # The refusal touched nothing: the holder goes on charging.
        store.register("acme", "edges", 1.0)
        assert store.charge("acme", {"edges": 0.5}) == {"edges": 0.5}

    def test_a_store_that_fails_to_open_releases_the_file(self, tmp_path):
        path = tmp_path / "ledger.db"
        path.write_bytes(b"this is not a sqlite database, it is long enough " * 4)
        with pytest.raises(sqlite3.DatabaseError):
            LedgerStore(path)
        path.unlink()
        LedgerStore(path).close()


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
            ledger.register("edges", 2.0)
            assert ledger.spent("edges") == pytest.approx(0.75)
            assert ledger.remaining("edges") == pytest.approx(1.25)
            with pytest.raises(BudgetExceededError):
                ledger.charge({"edges": 1.5})
            ledger.charge({"edges": 1.25})

    def test_durable_refusal_refreshes_memory(self, store):
        ledger = DurableLedger(store, "acme")
        ledger.register("edges", 1.0)
        # Another ledger over the same scope spends: the charge is checked
        # against the table, and every read of spend reads the table.
        sibling = DurableLedger(store, "acme")
        sibling.register("edges", 1.0)
        sibling.charge({"edges": 0.9})
        with pytest.raises(BudgetExceededError):
            ledger.charge({"edges": 0.5})
        assert ledger.spent("edges") == pytest.approx(0.9)
        assert ledger.report()["edges"]["spent"] == pytest.approx(0.9)

    def test_report_sees_sibling_spends(self, store):
        a = DurableLedger(store, "acme")
        b = DurableLedger(store, "acme")
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
# Property: the budgets table == a plain-Python model == in-memory ledger
# ----------------------------------------------------------------------
_SOURCES = ("edges", "nodes")

_ledger_steps = st.lists(
    st.tuples(
        st.sampled_from(("charge", "crash", "reopen")),
        st.sampled_from(_SOURCES),
        st.floats(min_value=0.01, max_value=1.5, allow_nan=False),
    ),
    max_size=25,
)


def _hex(spent: dict[str, float]) -> dict[str, str]:
    return {source: value.hex() for source, value in spent.items()}


@settings(max_examples=40, deadline=None)
@given(
    totals=st.tuples(
        st.floats(min_value=0.5, max_value=4.0, allow_nan=False),
        st.floats(min_value=0.5, max_value=4.0, allow_nan=False),
    ),
    steps=_ledger_steps,
)
def test_replay_matches_in_memory_ledger(tmp_path_factory, totals, steps):
    """The durable spends are exactly the acknowledged charges, added in order.

    The same random charge sequence is applied to a plain BudgetLedger and
    to one LedgerStore, with crashes inside the charge transaction (a
    ``wal.intent_commit`` fault) and reopens of the store interleaved.  The
    store must grant/refuse as the ledger does; after every step its
    ``spent`` must equal, ``float.hex`` for ``float.hex``, a dict that adds
    each acknowledged charge in commit order — and so must the ledger's, and
    a store reopened at the end.
    """
    path = tmp_path_factory.mktemp("ledger") / "ledger.db"
    memory = BudgetLedger()
    model = {source: 0.0 for source in _SOURCES}
    store = LedgerStore(path)
    try:
        for source, total in zip(_SOURCES, totals):
            memory.register(source, total)
            store.register("scope", source, total)
        for action, source, amount in steps:
            if action == "reopen":
                store.close()
                store = LedgerStore(path)
            elif action == "crash":
                with active_plan(parse_plan("wal.intent_commit:fail")):
                    with pytest.raises(FaultInjectedError):
                        store.charge("scope", {source: amount})
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
                if store_granted:
                    model[source] += amount
            assert _hex(store.spent("scope")) == _hex(model)
        assert _hex({source: memory.spent(source) for source in _SOURCES}) == _hex(model)
    finally:
        store.close()
    with LedgerStore(path) as reopened:
        assert _hex(reopened.spent("scope")) == _hex(model)


# ----------------------------------------------------------------------
# A file in the older log format is refused
# ----------------------------------------------------------------------
# The tables that format kept the budgets in, as it created them.
_LOG_SCHEMA = """
CREATE TABLE wal (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    txn TEXT NOT NULL DEFAULT '',
    kind TEXT NOT NULL,
    scope TEXT NOT NULL DEFAULT '',
    source TEXT NOT NULL DEFAULT '',
    amount REAL NOT NULL DEFAULT 0.0,
    description TEXT NOT NULL DEFAULT ''
);
CREATE INDEX wal_txn ON wal(txn);
CREATE TABLE snapshots (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    wal_id INTEGER NOT NULL,
    created_at REAL NOT NULL,
    state TEXT NOT NULL
);
"""


def _old_ledger(path, rows, snapshot=None, wal_id=0) -> None:
    """Write a ledger file in the log format: a snapshot row and a log tail."""
    conn = sqlite3.connect(path)
    conn.executescript(_LOG_SCHEMA)
    if snapshot is not None:
        conn.execute(
            "INSERT INTO snapshots (wal_id, created_at, state) VALUES (?, 0.0, ?)",
            (wal_id, json.dumps(snapshot)),
        )
    conn.executemany(
        "INSERT INTO wal (id, txn, kind, scope, source, amount) VALUES (?, ?, ?, ?, ?, ?)",
        rows,
    )
    conn.commit()
    conn.close()


def _rows(path, table) -> list[tuple]:
    conn = sqlite3.connect(path)
    try:
        return [tuple(row) for row in conn.execute(f"SELECT * FROM {table} ORDER BY id")]
    finally:
        conn.close()


class TestMigration:
    def test_a_log_format_file_is_refused_untouched(self, tmp_path):
        """The older format's spent ε is never silently dropped: the store
        refuses the file, leaves its log as it was and releases the file."""
        path = tmp_path / "ledger.db"
        _old_ledger(
            path,
            [
                (7, "", "register", "beta", "nodes", 1.5),
                (8, "t1", "intent", "beta", "nodes", 0.7),
                (9, "t1", "commit", "", "", 0.0),
            ],
            {"beta": {"nodes": {"total": 1.5, "spent": 0.1}}},
            wal_id=6,
        )
        log, snapshots = _rows(path, "wal"), _rows(path, "snapshots")
        for _ in range(2):  # the first refusal released <path>.lock
            with pytest.raises(PersistenceError, match="older budget-log format") as info:
                LedgerStore(path)
            assert str(path) in str(info.value)
        assert _rows(path, "wal") == log and _rows(path, "snapshots") == snapshots
