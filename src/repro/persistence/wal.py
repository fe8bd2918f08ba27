"""The durable store: a WAL-mode sqlite file behind the privacy ledger.

One :class:`LedgerStore` owns one ledger file.  It takes an exclusive
``flock`` on the sidecar file ``<path>.lock`` before sqlite connects, and
keeps it until :meth:`LedgerStore.close` (or the process's death, SIGKILL
included, when the kernel drops it).  A second opener of a held file — in
this process or another — is refused with
:class:`~repro.exceptions.PersistenceError`, so the store is the database's
only client and its one connection, serialized under one mutex, sees every
write there is.

Tables
------
``budgets``
    One row per ``(scope, source)``: its ``total`` and committed ``spent`` ε.
``audit``
    The append-only audit log.  ``seq`` is allocated by sqlite, so events are
    totally ordered across restarts.
``releases``
    Released noisy answers keyed ``(scope, query, ε)`` — the durable half of
    the answer cache, making retries idempotent across restarts.
``sessions``
    Hosted-session definitions (records, total ε, seed, executor, source) so
    a restarted service can re-materialise a tenant's session.  A file
    written by an older version may also carry a ``generation`` column;
    nothing reads or writes it.
``incarnations``
    A monotonic per-scope counter advanced on every re-materialisation: each
    incarnation of a seeded session derives a distinct noise stream, so no
    two released measurements can ever share Laplace draws (sharing a draw
    would let an analyst difference two releases and cancel the noise).

Atomic writes run in a re-entrant :meth:`LedgerStore.transaction`, one
``BEGIN IMMEDIATE`` … ``COMMIT`` that rolls back on any exception; ``charge``,
``put_release`` and ``append_audit`` join an open one.  The service opens one
per fresh measurement, so the ``budgets`` debit, the noise draw, the
``releases`` row and the ``measure`` audit row commit together: a crash
before the commit charges and releases nothing, one after it leaves a
release any retry replays for free.  A charge reads the involved ``budgets``
rows, checks each source (one never registered is refused) and sets
``spent = spent + ?``, or raises :class:`BudgetExceededError`; each
``spent`` is its committed charges added one IEEE addition at a time.  The
``wal.intent_commit`` fault point sits inside the charge, before its check;
``wal.pre_commit`` / ``wal.post_commit`` just before / after the ``COMMIT``.
"""

from __future__ import annotations

import fcntl
import json
import os
import sqlite3
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from ..exceptions import BudgetExceededError, InvalidEpsilonError, PersistenceError
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
    payload TEXT NOT NULL
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
        use the plain in-memory service instead.  A file another open store
        holds is refused with :class:`~repro.exceptions.PersistenceError`.
    timeout:
        Seconds a statement waits for sqlite's write lock.
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
        self._lock_fd = _hold(path)
        self._mutex = ordered_rlock("persistence.wal", 70, io_ok=True)
        self._closed = False
        self._on_commit: list[Callable[[], None]] = []
        try:
            # One connection, shared across threads under ``_mutex``; explicit
            # transaction control (isolation_level=None) because a charge
            # needs precisely-placed BEGIN IMMEDIATE/COMMIT boundaries.
            self._conn = sqlite3.connect(
                path, timeout=timeout, isolation_level=None, check_same_thread=False
            )
        except BaseException:
            os.close(self._lock_fd)
            raise
        try:
            self._conn.row_factory = sqlite3.Row
            if self._conn.execute(
                "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = 'wal'"
            ).fetchone():
                # Its budgets are a log this version does not read: refuse
                # the file, untouched, rather than serve it without its spend.
                raise PersistenceError(
                    f"ledger {path} is in the older budget-log format (a "
                    f"'wal' table of charge transactions), which this version "
                    f"does not read"
                )
            self._conn.execute("PRAGMA journal_mode=WAL")
            # FULL makes a COMMIT an fsync barrier: a charge acknowledged to
            # the caller is on disk even across power loss.
            self._conn.execute("PRAGMA synchronous=FULL")
            with self._mutex:
                self._conn.executescript(_SCHEMA)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the connection and release the file (idempotent)."""
        with self._mutex:
            if not self._closed:
                self._closed = True
                self._conn.close()
                os.close(self._lock_fd)

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
        incarnation (the crash-recovery path), and it stays in the table,
        where every reader of spend reads it.  A conflicting
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

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """One ``BEGIN IMMEDIATE`` … ``COMMIT`` under the store mutex, rolled
        back on any exception; a nested scope joins the open one."""
        with self._mutex:
            if self._conn.in_transaction:
                yield
                return
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                yield
                inject("wal.pre_commit")
                self._conn.execute("COMMIT")
            except BaseException:
                self._on_commit.clear()
                self._rollback()
                raise
            while self._on_commit:
                self._on_commit.pop(0)()
            inject("wal.post_commit")

    def after_commit(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the open transaction commits (at once if
        none is open; a rollback drops it), under the mutex: it takes no lock."""
        with self._mutex:
            if self._conn.in_transaction:
                self._on_commit.append(callback)
                return
        callback()

    def charge(self, scope: str, costs: dict[str, float]) -> dict[str, float]:
        """Durably charge every source of ``scope``, or charge nothing.

        In the caller's :meth:`transaction`, or one of its own.  Returns the
        per-source ``spent`` totals *after* the charge; raises, with nothing
        written, :class:`BudgetExceededError` when any source cannot afford
        its cost (:class:`InvalidEpsilonError` for one never registered).
        """
        with self.transaction():
            inject("wal.intent_commit")
            current = self._budgets(scope)
            spent_after: dict[str, float] = {}
            for source, amount in sorted(costs.items()):
                if source not in current:
                    raise InvalidEpsilonError(f"no budget registered for source {source!r}")
                total, spent = current[source]
                if amount > total - spent + _SLACK:
                    raise BudgetExceededError(amount, total - spent, source=source)
                spent_after[source] = spent + amount
            for source, amount in sorted(costs.items()):
                self._conn.execute(
                    "UPDATE budgets SET spent = spent + ? WHERE scope = ? AND source = ?",
                    (amount, scope, source),
                )
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

    def drop_releases(self, scope: str) -> None:
        """Delete one scope's persisted releases (its session was closed)."""
        with self._mutex:
            self._conn.execute("DELETE FROM releases WHERE scope = ?", (scope,))

    # ------------------------------------------------------------------
    # Hosted sessions
    # ------------------------------------------------------------------
    def put_session(self, name: str, payload: dict[str, Any]) -> None:
        """Persist a hosted session's definition (records, ε total, seed...)."""
        with self._mutex:
            self._conn.execute(
                "INSERT INTO sessions (name, created_at, payload) VALUES (?, ?, ?)",
                (name, time.time(), json.dumps(payload)),
            )

    def next_incarnation(self, scope: str) -> int:
        """Durably allocate the next incarnation number for ``scope`` (≥ 1).

        Every re-materialisation of a persisted session — after a restart, or
        by another registry over this store — gets a distinct number, from
        which the registry derives a distinct Laplace noise stream.
        Restoring the raw seed instead would reset the creator's stream to
        its initial state and re-draw noise values already released for
        earlier measurements — two releases sharing a noise draw can be
        differenced to cancel the noise exactly, breaking the ε-DP guarantee
        the durable ledger exists to preserve.
        """
        with self._mutex:
            self._conn.execute(
                "INSERT INTO incarnations (scope, count) VALUES (?, 1) "
                "ON CONFLICT(scope) DO UPDATE SET count = count + 1", (scope,)
            )
            row = self._conn.execute(
                "SELECT count FROM incarnations WHERE scope = ?", (scope,)
            ).fetchone()
        return int(row["count"])

    def get_session(self, name: str) -> dict[str, Any] | None:
        """One persisted session definition, if present."""
        with self._mutex:
            row = self._conn.execute(
                "SELECT payload FROM sessions WHERE name = ?", (name,)
            ).fetchone()
        return None if row is None else json.loads(row["payload"])

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

    def _rollback(self) -> None:
        try:
            self._conn.execute("ROLLBACK")
        except sqlite3.OperationalError:  # pragma: no cover - no txn active
            pass


def _hold(path: str) -> int:
    """Take the exclusive ``flock`` on ``<path>.lock``, or refuse the file.

    Returns the descriptor that holds the lock; closing it releases the lock.
    """
    descriptor = os.open(path + ".lock", os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(descriptor, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        os.close(descriptor)
        raise PersistenceError(f"ledger {path} is held by another open store") from None
    return descriptor
