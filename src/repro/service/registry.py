"""Multi-tenant session hosting: named privacy sessions plus an audit log.

The wPINQ paper frames the platform as an interactive *service*: analysts
submit measurement requests against protected datasets and the system answers
them while the ledger enforces sequential composition (Sections 2.1–2.3).
This module is the hosting side of that picture:

* a :class:`HostedSession` wraps one :class:`~repro.core.queryable
  .PrivacySession` (one tenant / protected dataset) and the queries it
  exposes by name;
* a :class:`SessionRegistry` maps tenant-chosen names to hosted sessions and
  keeps an audit log of every privacy-relevant event (session
  creation, measurements with their per-source charges, cache hits, refusals).

Hosting queries *by name* is deliberate: the trusted curator decides which
plans exist, analysts only pick one and an ε, so nothing executable ever
crosses the service boundary — and because each named query is built exactly
once, its plan object is a stable identity for the answer-reuse cache.

It is also why a hosted query's exact answer is computed once:
:class:`HostedSession` puts every hosted plan under
:meth:`PrivacySession.hold <repro.core.queryable.PrivacySession.hold>`, so the
first measurement of a query evaluates its plan and every later one — at
whatever ε, on whatever executor the session was created with — costs a
charge, the noise draws and a reply.  The retained answers are one released
answer's worth of memory per measured query and go when the session is
closed and the ``PrivacySession`` with it.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from ..core.dataset import WeightedDataset
from ..core.queryable import PrivacySession, Queryable
from ..exceptions import ServiceError, SessionExistsError
from ..sanitize import ordered_lock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..persistence.wal import LedgerStore

__all__ = [
    "AUDIT_LOG_LIMIT",
    "AuditEvent",
    "HostedSession",
    "SessionRegistry",
    "default_query_builders",
]


#: Events the in-memory audit log keeps: the oldest go first, so a long-lived
#: server's log stays bounded.  A durable registry keeps every event.
AUDIT_LOG_LIMIT = 65_536


def default_query_builders() -> dict[str, Callable[[Queryable], Queryable]]:
    """The named graph analyses every hosted edge dataset serves by default.

    Each builder takes the protected edges queryable and returns the
    measurement target.
    """
    from ..analyses import NAMED_QUERIES

    return {name: builder for name, (_, builder) in NAMED_QUERIES.items()}


@dataclass(frozen=True, slots=True)
class AuditEvent:
    """One privacy-relevant event recorded by the registry.

    ``sequence`` is monotonic and — when the registry is backed by a durable
    store — allocated by the store itself, so events are totally ordered
    across process restarts; ``worker`` is the recording process id, which
    tells the incarnations of a ledger file apart in its merged log.
    """

    sequence: int
    timestamp: float
    session: str
    action: str
    detail: dict[str, Any] = field(default_factory=dict)
    worker: int = 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly rendering (used by the HTTP audit endpoint)."""
        return {
            "sequence": self.sequence,
            "timestamp": self.timestamp,
            "session": self.session,
            "action": self.action,
            "detail": dict(self.detail),
            "worker": self.worker,
        }


class HostedSession:
    """One tenant's privacy session plus its named, measurable queries.

    The hosted-query table is built here, before the registry publishes the
    session, and never written again, so reading it takes no lock; the
    measurement pipeline itself is serialised by the session's own
    :attr:`~repro.core.queryable.PrivacySession.measure_lock`.
    """

    def __init__(
        self,
        name: str,
        session: PrivacySession,
        source: str,
        queries: Mapping[str, Queryable],
    ) -> None:
        self.name = name
        self.session = session
        self.source = source
        self.created_at = time.time()
        # The session holds every hosted plan: its exact answer is computed
        # by the first measurement that asks for it (never here) and reused
        # by all the others.
        self._queries = {
            query: session.hold(queryable) for query, queryable in queries.items()
        }

    def queryable(self, name: str) -> Queryable:
        """The hosted query registered under ``name``."""
        try:
            return self._queries[name]
        except KeyError as exc:
            raise ServiceError(
                f"session {self.name!r} hosts no query named {name!r}; "
                f"available: {sorted(self._queries)}"
            ) from exc

    def query_names(self) -> list[str]:
        """The names of every hosted query."""
        return sorted(self._queries)

    def computed_queries(self) -> list[str]:
        """The hosted queries whose exact answer has been computed (names only)."""
        return [
            name
            for name, queryable in sorted(self._queries.items())
            if self.session.holds_exact(queryable)
        ]

    def budget_report(self) -> dict[str, dict[str, float]]:
        """Per-source budget summary for this session."""
        return self.session.budget_report()

    def describe(self) -> dict[str, Any]:
        """JSON-friendly summary used by the HTTP session listing."""
        return {
            "name": self.name,
            "source": self.source,
            "created_at": self.created_at,
            "queries": self.query_names(),
            "computed": self.computed_queries(),
            "budget": self.budget_report(),
        }


class SessionRegistry:
    """Thread-safe mapping of tenant names to hosted sessions, with auditing.

    One lock, ``service.state``, guards the session table, the names
    reserved by in-flight creates and closes and the in-memory audit log,
    and the scheduler built over this registry guards its own tables with
    it too (see :attr:`lock`) — dictionary and counter operations only: no
    session is built, no plan evaluated and no storage touched under it.
    Per-session state is guarded by the session's own locks, so
    measurements against different sessions never wait on each other here
    for longer than a table lookup.

    With a durable ``store`` (:class:`~repro.persistence.wal.LedgerStore`)
    the registry is restart-safe: sessions charge through a
    :class:`~repro.persistence.ledger.DurableLedger` scoped to their name,
    session definitions and the audit log are persisted, and every session a
    previous incarnation persisted is re-materialised when the registry is
    built, with its committed ε spend intact.  From then on the in-memory
    table is the truth: the store holds its file exclusively, so no other
    opener can add or drop a session behind it.
    """

    def __init__(self, store: "LedgerStore | None" = None) -> None:
        self._lock = ordered_lock("service.state", 10)
        self._store = store
        self._sessions: dict[str, HostedSession] = {}
        # Names being built by an in-flight create() or dropped from the
        # store by an in-flight close(): reserved up front so a racing
        # duplicate create fails fast instead of building a whole session
        # (dataset protection + nine query plans) only to discard it.
        self._reserved: set[str] = set()
        # The in-memory audit log, one row per event in the durable store's
        # form — (timestamp, session, action, detail as JSON, worker) — and
        # decoded on read like the store's rows.  It keeps the newest
        # AUDIT_LOG_LIMIT events; `_audit_count` counts every event ever
        # recorded, so the last row's sequence number is the count and the
        # numbers stay monotonic after the oldest rows are dropped.  The JSON
        # text of a ``detail`` is about a quarter the size of the dict, lists
        # and floats it is made of.
        self._audit: deque[tuple[float, str, str, str, int]] = deque(
            maxlen=AUDIT_LOG_LIMIT
        )
        self._audit_count = 0
        if store is not None:
            # Warm boot: re-materialise every persisted session, each one's
            # durable ledger recovering its committed spend.  Released
            # answers stay on disk until a replay asks for one.
            for name in store.session_names():
                payload = store.get_session(name)
                self._sessions[name] = self._materialize(name, payload)

    @property
    def lock(self):
        """The ``service.state`` lock, shared with the scheduler's tables."""
        return self._lock

    # ------------------------------------------------------------------
    def create(
        self,
        name: str,
        records: WeightedDataset | Mapping[Any, float] | Iterable[Any],
        total_epsilon: float = float("inf"),
        seed: int | None = None,
        executor: str = "eager",
        source: str = "edges",
        queries: Mapping[str, Callable[[Queryable], Queryable]] | None = None,
    ) -> HostedSession:
        """Host a new session: protect ``records`` and build its named queries.

        ``queries`` maps query names to builders taking the protected
        queryable; it defaults to :func:`default_query_builders` (the graph
        analyses of the paper).  Raises :class:`ServiceError` if ``name`` is
        taken — checked up front (the name is reserved while the session is
        built), so a racing duplicate create fails before paying for dataset
        protection and query construction.

        With a durable store the session charges through a
        :class:`~repro.persistence.ledger.DurableLedger` scoped to ``name``,
        and its definition is persisted so a restart can re-materialise it —
        except when custom ``queries`` builders, a callable ``executor``, or
        a Generator seed make the definition unserialisable, in which case
        budgets and audit are still durable but the session itself dies with
        the process.
        """
        with self._lock:
            if name in self._sessions or name in self._reserved:
                raise SessionExistsError(f"a session named {name!r} already exists")
            self._reserved.add(name)
        try:
            session = PrivacySession(
                seed=seed, executor=executor, ledger=self._durable_ledger(name)
            )
            protected = session.protect(source, records, total_epsilon=total_epsilon)
            builders = (
                dict(queries) if queries is not None else default_query_builders()
            )
            hosted = HostedSession(
                name,
                session,
                source,
                {query: builder(protected) for query, builder in builders.items()},
            )
            self._wire_degrade(name, session)
            self._persist(hosted, total_epsilon, seed, executor, queries)
        except BaseException:
            with self._lock:
                self._reserved.discard(name)
            raise
        with self._lock:
            self._reserved.discard(name)
            self._sessions[name] = hosted
        self.record(
            name,
            "create-session",
            source=source,
            total_epsilon=total_epsilon,
            queries=sorted(builders),
            executor=executor if isinstance(executor, str) else "<callable>",
        )
        return hosted

    def get(self, name: str) -> HostedSession:
        """The hosted session registered under ``name``."""
        with self._lock:
            hosted = self._sessions.get(name)
        if hosted is None:
            raise ServiceError(f"no session named {name!r}")
        return hosted

    def names(self) -> list[str]:
        """Every hosted session name."""
        with self._lock:
            return sorted(self._sessions)

    def close(self, name: str) -> None:
        """Drop a hosted session (its in-memory datasets are released).

        With a durable store, the persisted definition and released answers
        are deleted, but the scope's *budget records are kept*: spent ε is a
        property of the underlying protected data, so re-creating a session
        under the same name resumes its committed spend instead of silently
        resetting the privacy guarantee.  The name stays reserved until the
        store has forgotten the old definition.
        """
        with self._lock:
            if self._sessions.pop(name, None) is None:
                raise ServiceError(f"no session named {name!r}")
            self._reserved.add(name)
        try:
            if self._store is not None:
                self._store.drop_session(name)
                self._store.drop_releases(name)
        finally:
            with self._lock:
                self._reserved.discard(name)
        self.record(name, "close-session")

    def exact_stats(self) -> dict[str, int]:
        """Exact answers held / computed / reused, summed over sessions in memory.

        Counts only, read without any session's measure lock: a stats poll
        never waits for a plan evaluation.
        """
        with self._lock:
            sessions = list(self._sessions.values())
        totals = {"held": 0, "computed": 0, "reused": 0}
        for hosted in sessions:
            for key, count in hosted.session.exact_stats().items():
                totals[key] += count
        return totals

    def describe(self) -> list[dict[str, Any]]:
        """JSON-friendly summaries of every hosted session."""
        summaries = []
        for name in self.names():
            try:
                summaries.append(self.get(name).describe())
            except ServiceError:
                # Closed between names() and get().
                continue
        return summaries

    # ------------------------------------------------------------------
    # Durable-session plumbing
    # ------------------------------------------------------------------
    def _durable_ledger(self, name: str):
        if self._store is None:
            return None
        from ..persistence.ledger import DurableLedger

        return DurableLedger(self._store, name)

    def _persist(
        self,
        hosted: HostedSession,
        total_epsilon: float,
        seed: Any,
        executor: Any,
        queries: Any,
    ) -> None:
        """Persist a session definition when it is serialisable."""
        if self._store is None or queries is not None:
            return
        if not isinstance(executor, str) or not (seed is None or isinstance(seed, int)):
            return
        from ..persistence.wal import encode_record

        dataset = hosted.session.dataset(hosted.source)
        payload = {
            "records": [
                [encode_record(record), weight] for record, weight in dataset.items()
            ],
            "total_epsilon": total_epsilon,
            "seed": seed,
            "executor": executor,
            "source": hosted.source,
            # Tells this definition apart from any later one under the same
            # name (a close and re-create over other records).
            "generation": uuid.uuid4().hex,
        }
        self._store.put_session(hosted.name, payload)

    def _wire_degrade(self, name: str, session: PrivacySession) -> None:
        """Route the executor's degraded-mode notifications into the audit log.

        Duck-typed on an ``on_degrade`` attribute so only backends that can
        degrade (today the sharded executor falling back to its inline
        vectorized path) are wired, without importing the shard package.
        """
        executor = getattr(session, "executor", None)
        if executor is None or not hasattr(executor, "on_degrade"):
            return

        def record_degrade(reason: str, _name: str = name) -> None:
            self.record(_name, "degraded", reason=reason)

        executor.on_degrade = record_degrade

    def _materialize(self, name: str, payload: dict[str, Any]) -> HostedSession:
        """Rebuild a persisted session (while the registry is being built).

        The durable ledger recovers the scope's committed spend during
        ``protect``; the restored session serves the default named queries
        (custom builders are never persisted).

        The persisted seed is never resumed raw: that would reset the
        Laplace stream to the state the creating incarnation already drew
        from, and two releases sharing a noise draw can be differenced to
        cancel the noise exactly.  Instead a fresh stream is derived from
        the seed plus a durably monotonic incarnation number — still
        deterministic per incarnation, but distinct from the creator's
        stream and from every other incarnation's.
        """
        from ..persistence.wal import decode_record

        seed = payload.get("seed")
        if seed is not None:
            import numpy as np

            incarnation = self._store.next_incarnation(name)
            seed = np.random.default_rng(
                np.random.SeedSequence([int(seed), incarnation])
            )
        session = PrivacySession(
            seed=seed,
            executor=payload.get("executor", "eager"),
            ledger=self._durable_ledger(name),
        )
        records = WeightedDataset(
            {
                decode_record(record): float(weight)
                for record, weight in payload["records"]
            }
        )
        source = payload.get("source", "edges")
        protected = session.protect(
            source, records, total_epsilon=float(payload.get("total_epsilon", float("inf")))
        )
        builders = default_query_builders()
        hosted = HostedSession(
            name,
            session,
            source,
            {query: builder(protected) for query, builder in builders.items()},
        )
        self._wire_degrade(name, session)
        self.record(name, "restore-session", source=source)
        return hosted

    # ------------------------------------------------------------------
    def record(self, session: str, action: str, **detail: Any) -> AuditEvent:
        """Append one event to the audit log (thread-safe, monotonic order).

        With a durable store the sequence number and timestamp are allocated
        by the store's append, so events are totally ordered across restarts;
        in-memory mode numbers events in the
        order they are recorded, keeps the newest :data:`AUDIT_LOG_LIMIT` and
        keeps each ``detail`` as the store would, as JSON text, so
        :meth:`audit` returns what a durable registry returns.
        """
        worker = os.getpid()
        if self._store is not None:
            sequence, timestamp = self._store.append_audit(
                session, action, detail, worker
            )
        else:
            encoded = json.dumps(detail, default=str)
            with self._lock:
                timestamp = time.time()
                self._audit.append((timestamp, session, action, encoded, worker))
                self._audit_count += 1
                sequence = self._audit_count
        return AuditEvent(
            sequence=sequence,
            timestamp=timestamp,
            session=session,
            action=action,
            detail=detail,
            worker=worker,
        )

    def audit(self, session: str | None = None) -> list[AuditEvent]:
        """The audit log, optionally filtered to one session's events.

        Store-backed registries read the merged durable log, so events from
        previous incarnations are included, in global sequence order.
        """
        if self._store is not None:
            rows = (
                (row["seq"], row["timestamp"], row["session"], row["action"],
                 row["detail"], row["worker"])
                for row in self._store.audit_rows(session)
            )
        else:
            with self._lock:
                log = list(self._audit)
                first = self._audit_count - len(log) + 1
            rows = (
                (sequence, *row)
                for sequence, row in enumerate(log, first)
                if session is None or row[1] == session
            )
        return [
            AuditEvent(sequence, timestamp, name, action, json.loads(detail), worker)
            for sequence, timestamp, name, action, detail, worker in rows
        ]
