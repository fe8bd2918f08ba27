"""The durable store: a WAL-mode sqlite file behind the privacy ledger.

One :class:`LedgerStore` owns one sqlite connection to the service's ledger
file.  Several stores — in other threads, or in other *processes* (the
multi-worker server of :mod:`repro.service.workers`) — may point at the same
file: sqlite's WAL journal plus ``BEGIN IMMEDIATE`` write transactions give a
single serialized writer, which is exactly the concurrency model the privacy
ledger needs, since the affordability check and the debit of a charge must be
atomic against every other worker's charges.

Tables
------
``budgets``
    One row per ``(scope, source)``: its ``total`` and committed ``spent`` ε.
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

A charge (:meth:`LedgerStore.charge`) is one ``BEGIN IMMEDIATE``
transaction: read the involved ``budgets`` rows, check each source's
affordability, then set ``spent = spent + ?`` per source (a source never
registered gets a row at total ∞) and ``COMMIT`` — or ``ROLLBACK`` and raise
:class:`BudgetExceededError`.  The caller releases the
noisy answer only after the commit returns, so a crash anywhere before it
leaves a ledger that neither charged nor released anything.  Each
``spent`` is the sum of its committed charges added one IEEE addition at a
time, in commit order.  ``fault_after_intent`` is a test hook invoked inside
the transaction, before the affordability check, so crash-recovery tests can
kill the process with the write lock held.

A file written by an older version kept the budgets as a log of charge
transactions plus snapshots; it is folded into ``budgets`` once, on open.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from typing import Any, Callable, Iterator

from ..exceptions import BudgetExceededError, InvalidEpsilonError
from ..resilience.faults import inject
from ..sanitize import ordered_rlock

__all__ = ["LedgerStore", "decode_record", "encode_record"]

# Matches PrivacyBudget.can_afford: absorbs float accumulation across charges.
_SLACK = 1e-12

_SCHEMA = """
CREATE TABLE IF NOT EXISTS budgets (
    scope TEXT NOT NULL,
    source TEXT NOT NULL,
    total REAL NOT NULL,
    spent REAL NOT NULL DEFAULT 0.0,
    PRIMARY KEY (scope, source)
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
    """Durable store for budgets, audit, answers and sessions.

    Parameters
    ----------
    path:
        The sqlite file (created if missing).  ``":memory:"`` is rejected —
        an in-memory store would silently defeat the durability guarantee;
        use the plain in-memory service instead.
    timeout:
        Seconds a write transaction waits for another worker's writer lock.
    """

    def __init__(self, path: str | os.PathLike, timeout: float = 30.0) -> None:
        path = os.fspath(path)
        if path == ":memory:":
            raise ValueError(
                "LedgerStore requires a file path; an in-memory ledger cannot "
                "survive a restart (use MeasurementService without a ledger "
                "path for ephemeral serving)"
            )
        self.path = path
        # Invoked inside a charge's transaction, before its check (tests).
        self.fault_after_intent: Callable[[], None] | None = None
        self._mutex = ordered_rlock("persistence.wal", 70, io_ok=True)
        self._closed = False
        # One connection, shared across threads under ``_mutex``; explicit
        # transaction control (isolation_level=None) because a charge needs
        # precisely-placed BEGIN IMMEDIATE/COMMIT boundaries.
        self._conn = sqlite3.connect(
            path, timeout=timeout, isolation_level=None, check_same_thread=False
        )
        self._conn.row_factory = sqlite3.Row
        self._enter_wal_mode(timeout)
        # FULL makes a COMMIT an fsync barrier: a charge acknowledged to the
        # caller is on disk even across power loss.
        self._conn.execute("PRAGMA synchronous=FULL")
        with self._mutex:
            self._conn.executescript(_SCHEMA)
            self._migrate()

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
        """Close the connection (idempotent)."""
        with self._mutex:
            if not self._closed:
                self._closed = True
                self._conn.close()

    def __enter__(self) -> "LedgerStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Budgets
    # ------------------------------------------------------------------
    def load_state(self) -> dict[str, dict[str, tuple[float, float]]]:
        """Every durable budget: ``{scope: {source: (total, spent)}}``."""
        with self._mutex:
            rows = self._conn.execute("SELECT * FROM budgets").fetchall()
        state: dict[str, dict[str, tuple[float, float]]] = {}
        for row in rows:
            state.setdefault(row["scope"], {})[row["source"]] = (row["total"], row["spent"])
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
            self._conn.execute(
                "INSERT INTO budgets (scope, source, total) VALUES (?, ?, ?) "
                "ON CONFLICT DO NOTHING",
                (scope, source, total),
            )
            row = self._conn.execute(
                "SELECT total, spent FROM budgets WHERE scope = ? AND source = ?",
                (scope, source),
            ).fetchone()
        if row["total"] != total:
            raise InvalidEpsilonError(
                f"source {source!r} of session {scope!r} is durably "
                f"registered with total epsilon {row['total']:g}, "
                f"refusing conflicting re-registration at {total:g}"
            )
        return row["total"], row["spent"]

    def charge(
        self, scope: str, costs: dict[str, float], description: str = ""
    ) -> dict[str, float]:
        """Durably charge every source of ``scope``, or charge nothing.

        One write transaction, described in the module docstring.  A source
        never registered is charged against a total of ∞.  Returns the
        per-source ``spent`` totals *after* the charge (which include spends
        committed by other workers); raises :class:`BudgetExceededError`,
        with nothing written, when any source cannot afford its cost.
        ``description`` is for the caller's history; the audit log is its
        durable record.
        """
        with self._mutex:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                if self.fault_after_intent is not None:
                    self.fault_after_intent()
                inject("wal.intent_commit")
                current = self._budgets(scope)
                spent_after: dict[str, float] = {}
                for source, amount in sorted(costs.items()):
                    total, spent = current.get(source, (float("inf"), 0.0))
                    if amount > total - spent + _SLACK:
                        raise BudgetExceededError(amount, total - spent, source=source)
                    spent_after[source] = spent + amount
                for source, amount in sorted(costs.items()):
                    self._conn.execute(
                        "INSERT INTO budgets (scope, source, total, spent) "
                        "VALUES (?, ?, ?, ?) "
                        "ON CONFLICT (scope, source) DO UPDATE SET spent = spent + ?",
                        (scope, source, float("inf"), amount, amount),
                    )
                inject("wal.pre_commit")
                self._conn.execute("COMMIT")
                inject("wal.post_commit")
            except BaseException:
                self._rollback()
                raise
        return spent_after

    def spent(self, scope: str) -> dict[str, float]:
        """Durable per-source committed spends of one scope."""
        return {source: spent for source, (_, spent) in self._budgets(scope).items()}

    def _budgets(self, scope: str) -> dict[str, tuple[float, float]]:
        """One scope's budgets, ``{source: (total, spent)}``."""
        with self._mutex:
            rows = self._conn.execute(
                "SELECT source, total, spent FROM budgets WHERE scope = ?", (scope,)
            ).fetchall()
        return {row["source"]: (row["total"], row["spent"]) for row in rows}

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
                for table in ("budgets", "audit", "releases", "sessions", "incarnations")
            }
        counts["path"] = self.path
        return counts

    # ------------------------------------------------------------------
    def _migrate(self) -> None:
        """Bring a ledger file written by an older version to this schema.

        Checked under the write lock: the workers of a fleet opening one such
        file race to migrate it, and the first to take the lock does it.

        * ``sessions.generation`` is added, backfilled from each payload.
        * The budget log (``wal`` plus its newest ``snapshots`` row) is folded
          into ``budgets`` and dropped.  Old files hold spent ε, so they
          must never just be ignored.
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
            if self._conn.execute(
                "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = 'wal'"
            ).fetchone():
                self._fold_log()
            self._conn.execute("COMMIT")
        except BaseException:
            self._rollback()
            raise

    def _fold_log(self) -> None:
        """Move the older format's budget log into ``budgets``.

        The newest snapshot row, then every log row in ``wal.id`` order: a
        ``register`` row creates its budget, a ``commit`` row adds each of
        its transaction's ``intent`` amounts to ``spent`` (a source never
        registered gets a total of ∞), and an ``abort`` drops them.  Intents
        never resolved are dropped: that version acknowledged a charge, and
        released its answer, only after the commit row was on disk.  These
        are the additions that version made when it read the log, in the
        same order, so every ``spent`` keeps its bits.
        """
        budgets: dict[tuple[str, str], list[float]] = {}
        snapshot = self._conn.execute(
            "SELECT state FROM snapshots ORDER BY id DESC LIMIT 1"
        ).fetchone()
        if snapshot is not None:
            for scope, sources in json.loads(snapshot["state"]).items():
                for source, entry in sources.items():
                    budgets[scope, source] = [float(entry["total"]), float(entry["spent"])]
        pending: dict[str, list[sqlite3.Row]] = {}
        for row in self._conn.execute("SELECT * FROM wal ORDER BY id").fetchall():
            if row["kind"] == "register":
                budgets.setdefault((row["scope"], row["source"]), [float(row["amount"]), 0.0])
            elif row["kind"] == "intent":
                pending.setdefault(row["txn"], []).append(row)
            elif row["kind"] == "commit":
                for intent in pending.pop(row["txn"], []):
                    key = (intent["scope"], intent["source"])
                    budgets.setdefault(key, [float("inf"), 0.0])[1] += float(intent["amount"])
            elif row["kind"] == "abort":
                pending.pop(row["txn"], None)
        self._conn.executemany(
            "INSERT INTO budgets (scope, source, total, spent) VALUES (?, ?, ?, ?)",
            [(scope, source, total, spent) for (scope, source), (total, spent) in budgets.items()],
        )
        self._conn.execute("DROP TABLE wal")
        self._conn.execute("DROP TABLE IF EXISTS snapshots")

    def _rollback(self) -> None:
        try:
            self._conn.execute("ROLLBACK")
        except sqlite3.OperationalError:  # pragma: no cover - no txn active
            pass
