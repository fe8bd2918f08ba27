"""The durable store: a WAL-mode sqlite file behind the privacy ledger.

One :class:`LedgerStore` owns one sqlite connection to the service's ledger
file.  Several stores — in other threads, or in other *processes* (the
multi-worker server of :mod:`repro.service.workers`) — may point at the same
file: sqlite's WAL journal plus ``BEGIN IMMEDIATE`` write transactions give a
single serialized writer, which is exactly the concurrency model the privacy
ledger needs, since the affordability check and the commit record of a charge
must be atomic against every other worker's charges.

Tables
------
``wal``
    The budget write-ahead log: ``register`` rows plus charge transactions
    (``intent`` rows, one per involved source, resolved by one ``commit`` or
    ``abort`` row sharing their transaction id).  Compacted into ``snapshots``
    every ``snapshot_every`` commits.
``snapshots``
    Folded ledger state (JSON) as of a log prefix; the latest row wins.
``audit``
    The append-only audit log.  ``seq`` is allocated by sqlite, so events are
    totally ordered across restarts and across worker processes.
``releases``
    Released noisy answers keyed ``(scope, query, ε)`` — the durable half of
    the answer cache, making retries idempotent across restarts and workers.
``sessions``
    Hosted-session definitions (records, total ε, seed, executor, source) so
    a restarted or sibling worker can re-materialise a tenant's session.
    Each definition's ``generation`` stamp also has a column of its own, so
    a lookup compares one value without decoding the records.
``incarnations``
    A monotonic per-scope counter advanced on every re-materialisation: each
    incarnation of a seeded session derives a distinct noise stream, so no
    two released measurements can ever share Laplace draws (sharing a draw
    would let an analyst difference two releases and cancel the noise).

The charge protocol (:meth:`LedgerStore.charge`) is deliberately two
transactions, not one:

1. append every ``intent`` row and commit — the intents are durable;
2. in a second write transaction, re-read the durable spends (which now
   include any charges other workers committed in between), check
   affordability, and append the ``commit`` record — or an ``abort`` record
   when some source cannot afford its cost.

A crash between the two leaves durable intents with no resolution row;
:func:`repro.persistence.snapshot.replay` drops them, which is exact because
the caller is only told the charge succeeded — and only then releases the
noisy answer — after step 2 returns.  ``fault_after_intent`` is a test hook
invoked between the steps so crash-recovery tests can kill the process at
precisely this point.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
import uuid
from typing import Any, Callable, Iterator

from ..exceptions import BudgetExceededError, InvalidEpsilonError
from ..resilience.faults import inject
from ..sanitize import ordered_rlock
from .snapshot import LedgerState, replay, state_from_json, state_to_json

__all__ = ["LedgerStore", "decode_record", "encode_record"]

# Matches PrivacyBudget.can_afford: absorbs float accumulation across charges.
_SLACK = 1e-12

_SCHEMA = """
CREATE TABLE IF NOT EXISTS wal (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    txn TEXT NOT NULL DEFAULT '',
    kind TEXT NOT NULL,
    scope TEXT NOT NULL DEFAULT '',
    source TEXT NOT NULL DEFAULT '',
    amount REAL NOT NULL DEFAULT 0.0,
    description TEXT NOT NULL DEFAULT ''
);
CREATE INDEX IF NOT EXISTS wal_txn ON wal(txn);
CREATE TABLE IF NOT EXISTS snapshots (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    wal_id INTEGER NOT NULL,
    created_at REAL NOT NULL,
    state TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS audit (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    timestamp REAL NOT NULL,
    worker INTEGER NOT NULL DEFAULT 0,
    session TEXT NOT NULL,
    action TEXT NOT NULL,
    detail TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS releases (
    scope TEXT NOT NULL,
    query TEXT NOT NULL,
    epsilon REAL NOT NULL,
    payload TEXT NOT NULL,
    PRIMARY KEY (scope, query, epsilon)
);
CREATE TABLE IF NOT EXISTS sessions (
    name TEXT PRIMARY KEY,
    created_at REAL NOT NULL,
    payload TEXT NOT NULL,
    generation TEXT NOT NULL DEFAULT ''
);
CREATE TABLE IF NOT EXISTS incarnations (
    scope TEXT PRIMARY KEY,
    count INTEGER NOT NULL
);
"""


def encode_record(record: Any) -> Any:
    """JSON-encode one released record (tuples become arrays, recursively)."""
    if isinstance(record, tuple):
        return [encode_record(element) for element in record]
    return record


def decode_record(record: Any) -> Any:
    """Invert :func:`encode_record` (arrays become tuples, recursively).

    Mirrors the HTTP transport's record convention, so a record round-trips
    identically whether it travelled through JSON over the wire or through
    the durable store.
    """
    if isinstance(record, list):
        return tuple(decode_record(element) for element in record)
    return record


class LedgerStore:
    """Durable WAL + snapshot store for budgets, audit, answers and sessions.

    Parameters
    ----------
    path:
        The sqlite file (created if missing).  ``":memory:"`` is rejected —
        an in-memory store would silently defeat the durability guarantee;
        use the plain in-memory service instead.
    snapshot_every:
        Commit count between automatic log compactions.
    timeout:
        Seconds a write transaction waits for another worker's writer lock.
    """

    def __init__(
        self, path: str | os.PathLike, snapshot_every: int = 64, timeout: float = 30.0
    ) -> None:
        path = os.fspath(path)
        if path == ":memory:":
            raise ValueError(
                "LedgerStore requires a file path; an in-memory ledger cannot "
                "survive a restart (use MeasurementService without a ledger "
                "path for ephemeral serving)"
            )
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be a positive integer")
        self.path = path
        self.snapshot_every = snapshot_every
        # Invoked between the intent append and the commit record (tests).
        self.fault_after_intent: Callable[[], None] | None = None
        self._mutex = ordered_rlock("persistence.wal", 70, io_ok=True)  # lock-order: 70 io-ok
        self._commits_since_snapshot = 0
        self._closed = False
        # The ledger state this store last folded, the intents still
        # unresolved in it and the highest ``wal.id`` it read: the next read
        # folds only what was appended since (see _load_state_locked).
        self._folded = LedgerState()
        self._folded_intents: dict[str, list[Any]] = {}
        self._folded_id = 0
        # One connection, shared across threads under ``_mutex``; explicit
        # transaction control (isolation_level=None) because the charge
        # protocol needs precisely-placed BEGIN IMMEDIATE/COMMIT boundaries.
        self._conn = sqlite3.connect(
            path, timeout=timeout, isolation_level=None, check_same_thread=False
        )
        self._conn.row_factory = sqlite3.Row
        self._enter_wal_mode(timeout)
        # FULL makes a COMMIT an fsync barrier: a charge acknowledged to the
        # caller is on disk even across power loss, which is what lets replay
        # treat unresolved intents as exactly-not-released.
        self._conn.execute("PRAGMA synchronous=FULL")
        with self._mutex:
            self._conn.executescript(_SCHEMA)
            self._add_generation_column()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _enter_wal_mode(self, timeout: float) -> None:
        """``PRAGMA journal_mode=WAL``, waiting out a sibling's open.

        Turning a new file into a WAL database takes an exclusive lock that
        sqlite does not wait for (the connection's busy timeout does not
        apply to it), so two workers opening one fresh ledger at the same
        moment would have one of them fail with "database is locked".
        """
        deadline = time.monotonic() + timeout
        while True:
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() >= deadline:
                    raise
                time.sleep(0.01)

    def close(self) -> None:
        """Compact the log one final time and close the connection."""
        with self._mutex:
            if self._closed:
                return
            try:
                self.snapshot()
            finally:
                self._closed = True
                self._conn.close()

    def __enter__(self) -> "LedgerStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Budget write-ahead log
    # ------------------------------------------------------------------
    def load_state(self) -> LedgerState:
        """The current durable ledger state (snapshot + log replay).

        One read transaction, so a sibling compacting between the read of the
        snapshot and the read of the log cannot hide rows from both.
        """
        with self._mutex:
            self._conn.execute("BEGIN")
            try:
                state = self._load_state_locked()
                self._conn.execute("COMMIT")
            except BaseException:
                self._rollback()
                raise
        return state

    def register(self, scope: str, source: str, total: float) -> tuple[float, float]:
        """Durably register ``(scope, source)`` at ``total`` ε.

        Returns ``(total, spent)`` from the durable state — ``spent`` is
        non-zero when the pair was already registered by a previous
        incarnation (or another worker), which is exactly the crash-recovery
        path: the in-memory budget adopts the recovered spend.  A conflicting
        ``total`` raises :class:`InvalidEpsilonError`, mirroring
        :meth:`repro.core.budget.BudgetLedger.register`.
        """
        with self._mutex:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                state = self._load_state_locked()
                budget = state.budget(scope, source)
                if budget is not None:
                    if budget.total != total:
                        raise InvalidEpsilonError(
                            f"source {source!r} of session {scope!r} is durably "
                            f"registered with total epsilon {budget.total:g}, "
                            f"refusing conflicting re-registration at {total:g}"
                        )
                    self._conn.execute("COMMIT")
                    return budget.total, budget.spent
                self._conn.execute(
                    "INSERT INTO wal (txn, kind, scope, source, amount) "
                    "VALUES ('', 'register', ?, ?, ?)",
                    (scope, source, total),
                )
                self._conn.execute("COMMIT")
                return total, 0.0
            except BaseException:
                self._rollback()
                raise

    def charge(
        self, scope: str, costs: dict[str, float], description: str = ""
    ) -> dict[str, float]:
        """Durably charge every source of ``scope``, or record an abort.

        Implements the two-step intent/commit protocol described in the
        module docstring.  Returns the authoritative per-source ``spent``
        totals *after* the charge (which include spends committed by other
        workers); raises :class:`BudgetExceededError` — after durably
        aborting the transaction — when any source cannot afford its cost
        against the durable state.
        """
        txn = uuid.uuid4().hex
        with self._mutex:
            # Step 1: durable intents.
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                for source, amount in sorted(costs.items()):
                    self._conn.execute(
                        "INSERT INTO wal (txn, kind, scope, source, amount, description) "
                        "VALUES (?, 'intent', ?, ?, ?, ?)",
                        (txn, scope, source, amount, description),
                    )
                self._conn.execute("COMMIT")
            except BaseException:
                self._rollback()
                raise

            if self.fault_after_intent is not None:
                self.fault_after_intent()
            # Crash window the recovery protocol exists for: durable intents,
            # no resolution row yet.  Replay drops them.
            inject("wal.intent_commit")

            # Step 2: affordability against the durable state, then the
            # commit record — one write transaction, so the check and the
            # commit are atomic against every other worker.
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                state = self._load_state_locked()
                refusal: BudgetExceededError | None = None
                for source, amount in sorted(costs.items()):
                    budget = state.budget(scope, source)
                    total = budget.total if budget is not None else float("inf")
                    spent = budget.spent if budget is not None else 0.0
                    if amount > total - spent + _SLACK:
                        refusal = BudgetExceededError(
                            amount, total - spent, source=source
                        )
                        break
                kind = "abort" if refusal is not None else "commit"
                self._conn.execute(
                    "INSERT INTO wal (txn, kind) VALUES (?, ?)", (txn, kind)
                )
                inject("wal.pre_commit")
                self._conn.execute("COMMIT")
                inject("wal.post_commit")
            except BaseException:
                self._rollback()
                raise
            if refusal is not None:
                raise refusal
            self._commits_since_snapshot += 1
            if self._commits_since_snapshot >= self.snapshot_every:
                self.snapshot()
        spent_after: dict[str, float] = {}
        for source, amount in costs.items():
            budget = state.budget(scope, source)
            base = budget.spent if budget is not None else 0.0
            spent_after[source] = base + amount
        return spent_after

    def spent(self, scope: str) -> dict[str, float]:
        """Durable per-source committed spends of one scope."""
        sources = self.load_state().budgets.get(scope, {})
        return {source: budget.spent for source, budget in sources.items()}

    def snapshot(self) -> None:
        """Fold the resolved log prefix into a snapshot row and prune it.

        Unresolved intents (a transaction another worker has started but not
        yet committed or aborted — or that a crashed worker will never
        resolve) are kept in the log: they are not part of the folded state,
        and a commit record arriving later must still find them.
        """
        with self._mutex:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                state = self._load_state_locked()
                keep = [row["id"] for rows in self._folded_intents.values() for row in rows]
                if self._conn.execute("SELECT COUNT(*) FROM wal").fetchone()[0] == len(keep):
                    # Nothing was resolved since the newest snapshot, which
                    # therefore already holds this state.
                    self._conn.execute("COMMIT")
                    self._commits_since_snapshot = 0
                    return
                max_id = self._folded_id
                self._conn.execute(
                    "INSERT INTO snapshots (wal_id, created_at, state) VALUES (?, ?, ?)",
                    (max_id, time.time(), state_to_json(state)),
                )
                if keep:
                    placeholders = ",".join("?" * len(keep))
                    self._conn.execute(
                        f"DELETE FROM wal WHERE id NOT IN ({placeholders})",
                        tuple(keep),
                    )
                else:
                    self._conn.execute("DELETE FROM wal")
                # Only the newest snapshot is ever read; drop the older rows.
                self._conn.execute(
                    "DELETE FROM snapshots WHERE wal_id < ?", (max_id,)
                )
                self._conn.execute("COMMIT")
                self._commits_since_snapshot = 0
            except BaseException:
                self._rollback()
                raise

    # ------------------------------------------------------------------
    # Audit log
    # ------------------------------------------------------------------
    def append_audit(
        self, session: str, action: str, detail: dict[str, Any], worker: int
    ) -> tuple[int, float]:
        """Append one audit event; returns its global ``(sequence, timestamp)``."""
        timestamp = time.time()
        with self._mutex:
            cursor = self._conn.execute(
                "INSERT INTO audit (timestamp, worker, session, action, detail) "
                "VALUES (?, ?, ?, ?, ?)",
                (timestamp, worker, session, action, json.dumps(detail, default=str)),
            )
        return int(cursor.lastrowid), timestamp

    def audit_rows(self, session: str | None = None) -> Iterator[sqlite3.Row]:
        """Audit events in global sequence order (optionally one session's)."""
        with self._mutex:
            if session is None:
                rows = self._conn.execute("SELECT * FROM audit ORDER BY seq").fetchall()
            else:
                rows = self._conn.execute(
                    "SELECT * FROM audit WHERE session = ? ORDER BY seq", (session,)
                ).fetchall()
        return iter(rows)

    # ------------------------------------------------------------------
    # Released answers
    # ------------------------------------------------------------------
    def put_release(
        self, scope: str, query: str, epsilon: float, values: list[tuple[Any, float]]
    ) -> None:
        """Persist one released answer (first release wins, like the cache)."""
        payload = json.dumps(
            [[encode_record(record), value] for record, value in values]
        )
        with self._mutex:
            self._conn.execute(
                "INSERT OR IGNORE INTO releases (scope, query, epsilon, payload) "
                "VALUES (?, ?, ?, ?)",
                (scope, query, float(epsilon), payload),
            )

    def get_release(
        self, scope: str, query: str, epsilon: float
    ) -> list[tuple[Any, float]] | None:
        """The persisted released answer for ``(scope, query, ε)``, if any."""
        with self._mutex:
            row = self._conn.execute(
                "SELECT payload FROM releases WHERE scope = ? AND query = ? "
                "AND epsilon = ?",
                (scope, query, float(epsilon)),
            ).fetchone()
        if row is None:
            return None
        return [
            (decode_record(record), float(value))
            for record, value in json.loads(row["payload"])
        ]

    def releases_for(self, scope: str) -> list[tuple[str, float, list[tuple[Any, float]]]]:
        """Every persisted release of one scope (cache warming on restart)."""
        with self._mutex:
            rows = self._conn.execute(
                "SELECT query, epsilon, payload FROM releases WHERE scope = ?",
                (scope,),
            ).fetchall()
        return [
            (
                row["query"],
                float(row["epsilon"]),
                [
                    (decode_record(record), float(value))
                    for record, value in json.loads(row["payload"])
                ],
            )
            for row in rows
        ]

    def drop_releases(self, scope: str) -> None:
        """Delete one scope's persisted releases (its session was closed)."""
        with self._mutex:
            self._conn.execute("DELETE FROM releases WHERE scope = ?", (scope,))

    # ------------------------------------------------------------------
    # Hosted sessions
    # ------------------------------------------------------------------
    def put_session(self, name: str, payload: dict[str, Any]) -> None:
        """Persist a hosted session's definition (records, ε total, seed...).

        A plain INSERT, so two workers racing to create the same session name
        collide here (sqlite3.IntegrityError) and exactly one wins.
        """
        with self._mutex:
            self._conn.execute(
                "INSERT INTO sessions (name, created_at, payload, generation) "
                "VALUES (?, ?, ?, ?)",
                (name, time.time(), json.dumps(payload), payload.get("generation") or ""),
            )

    def next_incarnation(self, scope: str) -> int:
        """Durably allocate the next incarnation number for ``scope`` (≥ 1).

        Every re-materialisation of a persisted session — after a restart, or
        on a sibling worker process — gets a distinct number, from which the
        registry derives a distinct Laplace noise stream.  Restoring the raw
        seed instead would reset the creator's stream to its initial state
        and re-draw noise values already released for earlier measurements —
        two releases sharing a noise draw can be differenced to cancel the
        noise exactly, breaking the ε-DP guarantee the durable ledger exists
        to preserve.
        """
        with self._mutex:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                row = self._conn.execute(
                    "SELECT count FROM incarnations WHERE scope = ?", (scope,)
                ).fetchone()
                count = (int(row["count"]) if row is not None else 0) + 1
                self._conn.execute(
                    "INSERT INTO incarnations (scope, count) VALUES (?, ?) "
                    "ON CONFLICT(scope) DO UPDATE SET count = excluded.count",
                    (scope, count),
                )
                self._conn.execute("COMMIT")
                return count
            except BaseException:
                self._rollback()
                raise

    def get_session(self, name: str) -> dict[str, Any] | None:
        """One persisted session definition, if present."""
        with self._mutex:
            row = self._conn.execute(
                "SELECT payload FROM sessions WHERE name = ?", (name,)
            ).fetchone()
        return None if row is None else json.loads(row["payload"])

    def session_generation(self, name: str) -> str | None:
        """A persisted session's ``generation`` stamp, or ``None`` if absent.

        One column, so a lookup never decodes the session's records; a
        definition stored without a stamp reads ``""``.
        """
        with self._mutex:
            row = self._conn.execute(
                "SELECT generation FROM sessions WHERE name = ?", (name,)
            ).fetchone()
        return None if row is None else row["generation"]

    def session_names(self) -> list[str]:
        """Every persisted session name."""
        with self._mutex:
            rows = self._conn.execute("SELECT name FROM sessions ORDER BY name").fetchall()
        return [row["name"] for row in rows]

    def drop_session(self, name: str) -> None:
        """Delete a persisted session definition.

        Deliberately does *not* delete the scope's budget records: spent ε
        is a property of the underlying protected data, so re-creating a
        session under the same name resumes its spend rather than resetting
        it (see README "Durability & operations").
        """
        with self._mutex:
            self._conn.execute("DELETE FROM sessions WHERE name = ?", (name,))

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Row counts for the stats endpoint and tests."""
        with self._mutex:
            counts = {
                table: self._conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
                for table in (
                    "wal", "snapshots", "audit", "releases", "sessions",
                    "incarnations",
                )
            }
        counts["path"] = self.path
        counts["snapshot_every"] = self.snapshot_every
        return counts

    # ------------------------------------------------------------------
    def _add_generation_column(self) -> None:
        """Give a ledger file written without ``sessions.generation`` the column.

        Backfilled from each stored payload.  Checked under the write lock:
        the workers of a fleet opening one such file race to migrate it.
        """
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            columns = [row["name"] for row in self._conn.execute("PRAGMA table_info(sessions)")]
            if "generation" not in columns:
                self._conn.execute(
                    "ALTER TABLE sessions ADD COLUMN generation TEXT NOT NULL DEFAULT ''"
                )
                for row in self._conn.execute("SELECT name, payload FROM sessions").fetchall():
                    self._conn.execute(
                        "UPDATE sessions SET generation = ? WHERE name = ?",
                        (json.loads(row["payload"]).get("generation") or "", row["name"]),
                    )
            self._conn.execute("COMMIT")
        except BaseException:
            self._rollback()
            raise

    def _latest_snapshot(self) -> tuple[int, str | None]:
        """The newest snapshot's ``wal_id`` and JSON state (``0, None`` if none)."""
        row = self._conn.execute(
            "SELECT wal_id, state FROM snapshots ORDER BY id DESC LIMIT 1"
        ).fetchone()
        return (0, None) if row is None else (row["wal_id"], row["state"])

    def _load_state_locked(self) -> LedgerState:
        """The durable state, folding only the log this store has not read.

        Called with the mutex held, inside a transaction and before it
        writes, so every read sees one committed state.  ``wal.id`` is
        AUTOINCREMENT: a row this store has not folded has an id above
        ``_folded_id``, unless a sibling's compaction moved it into a snapshot
        past that id, and then the fold restarts from that snapshot.  Both are
        the one :func:`replay` and both give what a full replay gives, float
        for float: a snapshot round-trips its floats exactly, and the
        additions run in log order either way.
        """
        compacted, payload = self._latest_snapshot()
        if compacted > self._folded_id:
            base, pending, after = state_from_json(payload), {}, 0
        else:
            base, after = self._folded, self._folded_id
            pending = {txn: list(rows) for txn, rows in self._folded_intents.items()}
        rows = self._conn.execute(
            "SELECT * FROM wal WHERE id > ? ORDER BY id", (after,)
        ).fetchall()
        self._folded = replay(base, rows, pending)
        self._folded_intents = pending
        self._folded_id = max(compacted, after, rows[-1]["id"] if rows else 0)
        return self._folded.copy()

    def _rollback(self) -> None:
        try:
            self._conn.execute("ROLLBACK")
        except sqlite3.OperationalError:  # pragma: no cover - no txn active
            pass
