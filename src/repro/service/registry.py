"""Multi-tenant session hosting: named privacy sessions plus an audit log.

The wPINQ paper frames the platform as an interactive *service*: analysts
submit measurement requests against protected datasets and the system answers
them while the ledger enforces sequential composition (Sections 2.1–2.3).
This module is the hosting side of that picture:

* a :class:`HostedSession` wraps one :class:`~repro.core.queryable
  .PrivacySession` (one tenant / protected dataset), the queries it exposes by
  name, and a per-session lock guarding the hosted-query table;
* a :class:`SessionRegistry` maps tenant-chosen names to hosted sessions and
  keeps an audit log of every privacy-relevant event (session
  creation, measurements with their per-source charges, cache hits, refusals).

Hosting queries *by name* is deliberate: the trusted curator decides which
plans exist, analysts only pick one and an ε, so nothing executable ever
crosses the service boundary — and because each named query is built exactly
once, its plan object is a stable identity for the answer-reuse cache and for
shared-sub-plan fusion across concurrent clients.

It is also why a hosted query's exact answer is computed once:
:meth:`HostedSession.register_query` puts every hosted plan under
:meth:`PrivacySession.hold <repro.core.queryable.PrivacySession.hold>`, so the
first measurement of a query evaluates its plan and every later one — at
whatever ε, on whatever executor the session was created with — costs a
charge, the noise draws and a reply.  The retained answers are one released
answer's worth of memory per measured query and go when the session is
closed (or its stale replica evicted) and the ``PrivacySession`` with it.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from ..core.dataset import WeightedDataset
from ..core.queryable import PrivacySession, Queryable
from ..exceptions import ServiceError, SessionExistsError
from ..sanitize import ordered_rlock

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
    across process restarts and across concurrent worker processes sharing
    one ledger file; ``worker`` (the recording process id) disambiguates
    which worker emitted each event when logs are read back merged.
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

    The hosted-query table is guarded by a per-session lock; the measurement
    pipeline itself is serialised by the session's own
    :attr:`~repro.core.queryable.PrivacySession.measure_lock`.
    """

    def __init__(self, name: str, session: PrivacySession, source: str) -> None:
        self.name = name
        self.session = session
        self.source = source
        self.created_at = time.time()
        # Identity of the *persisted* definition this hosted session was
        # built from (set by the registry).  None for in-memory registries
        # and for unserialisable (ephemeral) sessions; when set, the
        # registry re-validates it against the store on every lookup so a
        # close/re-create by a sibling worker evicts this replica instead of
        # letting it serve a stale dataset.
        self.generation: str | None = None
        self._lock = ordered_rlock("service.session", 14)
        self._queries: dict[str, Queryable] = {}

    # ------------------------------------------------------------------
    @property
    def lock(self) -> threading.RLock:
        """The lock guarding this session's hosted-query table."""
        return self._lock

    def register_query(self, name: str, queryable: Queryable) -> None:
        """Expose ``queryable`` to clients under ``name``.

        The session holds the query's plan from here on: its exact answer is
        computed by the first measurement that asks for it (never here) and
        reused by all the others.
        """
        if queryable.session is not self.session:
            raise ServiceError(
                f"query {name!r} belongs to a different privacy session"
            )
        with self._lock:
            if name in self._queries:
                raise ServiceError(
                    f"session {self.name!r} already hosts a query named {name!r}"
                )
            self._queries[name] = self.session.hold(queryable)

    def queryable(self, name: str) -> Queryable:
        """The hosted query registered under ``name``."""
        with self._lock:
            try:
                return self._queries[name]
            except KeyError as exc:
                raise ServiceError(
                    f"session {self.name!r} hosts no query named {name!r}; "
                    f"available: {sorted(self._queries)}"
                ) from exc

    def query_names(self) -> list[str]:
        """The names of every hosted query."""
        with self._lock:
            return sorted(self._queries)

    def computed_queries(self) -> list[str]:
        """The hosted queries whose exact answer has been computed (names only)."""
        with self._lock:
            queries = sorted(self._queries.items())
        return [
            name for name, queryable in queries if self.session.holds_exact(queryable)
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

    All mutating operations (create/close) and the audit log are guarded by
    one registry lock; per-session state is guarded by the session's own
    locks, so measurements against different sessions never contend here.

    With a durable ``store`` (:class:`~repro.persistence.wal.LedgerStore`)
    the registry becomes restart- and multi-worker-safe: sessions charge
    through a :class:`~repro.persistence.ledger.DurableLedger` scoped to
    their name, session definitions and the audit log are persisted, and a
    session created by a previous incarnation (or a sibling worker process)
    is re-materialised on demand with its committed ε spend intact.
    ``on_evict`` is invoked with the session name whenever a stale in-memory
    replica is dropped (its persisted definition was closed or replaced by
    a sibling worker); the service uses it to evict the scope's cached
    answers.
    """

    def __init__(
        self,
        store: "LedgerStore | None" = None,
        on_evict: Callable[[str], None] | None = None,
    ) -> None:
        self._lock = ordered_rlock("service.registry", 10, io_ok=True)
        self._store = store
        self._on_evict = on_evict
        self._sessions: dict[str, HostedSession] = {}
        # Names being built by an in-flight create(): reserved up front so a
        # racing duplicate create fails fast instead of building a whole
        # session (dataset protection + nine query plans) only to discard it.
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

    @property
    def store(self) -> "LedgerStore | None":
        """The durable store backing this registry (None when in-memory)."""
        return self._store

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
        and its definition is persisted so restarts and sibling workers can
        re-materialise it — except when custom ``queries`` builders, a
        callable ``executor``, or a Generator seed make the definition
        unserialisable, in which case budgets and audit are still durable but
        the session itself dies with the process.
        """
        with self._lock:
            hosted = self._sessions.get(name)
            stamp = None if self._store is None else self._store.session_generation(name)
            if (
                hosted is not None
                and hosted.generation is not None
                and stamp != hosted.generation
            ):
                # Stale replica: a sibling worker closed (or replaced) this
                # session after we materialised it.  Drop it so the durable
                # store alone decides whether the name is taken.
                self._sessions.pop(name, None)
                if self._on_evict is not None:
                    self._on_evict(name)
            if name in self._sessions or name in self._reserved:
                raise SessionExistsError(f"a session named {name!r} already exists")
            if stamp is not None:
                raise SessionExistsError(
                    f"a session named {name!r} already exists (persisted)"
                )
            self._reserved.add(name)
        try:
            session = PrivacySession(
                seed=seed, executor=executor, ledger=self._durable_ledger(name)
            )
            protected = session.protect(source, records, total_epsilon=total_epsilon)
            hosted = HostedSession(name, session, source)
            builders = (
                dict(queries) if queries is not None else default_query_builders()
            )
            for query_name, builder in builders.items():
                hosted.register_query(query_name, builder(protected))
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
        """The hosted session registered under ``name``.

        With a durable store the in-memory table is only a *replica*: a miss
        falls back to the persisted session definitions (a session created
        before a restart — or by a sibling worker process — is
        re-materialised on first use, with its committed ε spend recovered
        by the durable ledger), and a hit is re-validated against the
        persisted definition's generation stamp, so a session a sibling
        worker closed (or closed and re-created over different records) is
        evicted and its cached answers dropped instead of being served
        stale.
        """
        with self._lock:
            hosted = self._sessions.get(name)
            if self._store is None or (
                hosted is not None and hosted.generation is None
            ):
                # In-memory registry, or an ephemeral (never-persisted)
                # session: the local table is authoritative.
                if hosted is not None:
                    return hosted
                raise ServiceError(f"no session named {name!r}")
            if hosted is not None:
                if self._store.session_generation(name) == hosted.generation:
                    return hosted
                # Stale replica: a sibling worker closed this session, or
                # re-created it under a new definition.  Drop the replica
                # and its cached answers before answering.
                self._sessions.pop(name, None)
                if self._on_evict is not None:
                    self._on_evict(name)
            payload = self._store.get_session(name)
            if payload is not None:
                return self._materialize_locked(name, payload)
            raise ServiceError(f"no session named {name!r}")

    def names(self) -> list[str]:
        """Every hosted session name (in memory or persisted)."""
        with self._lock:
            names = set(self._sessions)
        if self._store is not None:
            names.update(self._store.session_names())
        return sorted(names)

    def load_persisted(self) -> list[str]:
        """Materialise every persisted session (warm boot after a restart)."""
        if self._store is None:
            return []
        restored = []
        for name in self._store.session_names():
            with self._lock:
                if name not in self._sessions:
                    payload = self._store.get_session(name)
                    if payload is not None:
                        self._materialize_locked(name, payload)
                        restored.append(name)
        return restored

    def close(self, name: str) -> None:
        """Drop a hosted session (its in-memory datasets are released).

        With a durable store, the persisted definition and released answers
        are deleted, but the scope's *budget records are kept*: spent ε is a
        property of the underlying protected data, so re-creating a session
        under the same name resumes its committed spend instead of silently
        resetting the privacy guarantee.
        """
        with self._lock:
            known = name in self._sessions
            if self._store is not None and not known:
                known = self._store.session_generation(name) is not None
            if not known:
                raise ServiceError(f"no session named {name!r}")
            self._sessions.pop(name, None)
        if self._store is not None:
            self._store.drop_session(name)
            self._store.drop_releases(name)
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
                # Closed by a sibling worker between names() and get().
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
        # A fresh generation stamp per persisted definition: lookups compare
        # it against the store so sibling workers notice a close/re-create.
        generation = uuid.uuid4().hex
        payload = {
            "records": [
                [encode_record(record), weight] for record, weight in dataset.items()
            ],
            "total_epsilon": total_epsilon,
            "seed": seed,
            "executor": executor,
            "source": hosted.source,
            "generation": generation,
        }
        try:
            self._store.put_session(hosted.name, payload)
        except sqlite3.IntegrityError as exc:
            raise SessionExistsError(
                f"a session named {hosted.name!r} already exists (created "
                f"concurrently by another worker)"
            ) from exc
        hosted.generation = generation

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

    def _materialize_locked(self, name: str, payload: dict[str, Any]) -> HostedSession:
        """Rebuild a persisted session (registry lock held).

        The durable ledger recovers the scope's committed spend during
        ``protect``; the restored session serves the default named queries
        (custom builders are never persisted).

        The persisted seed is never resumed raw: that would reset the
        Laplace stream to the state the creating incarnation already drew
        from, and two releases sharing a noise draw can be differenced to
        cancel the noise exactly.  Instead a fresh stream is derived from
        the seed plus a durably monotonic incarnation number — still
        deterministic per incarnation, but distinct from the creator's
        stream and from every other incarnation's (including sibling forked
        workers rebuilding the same session).
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
        hosted = HostedSession(name, session, source)
        hosted.generation = payload.get("generation")
        for query_name, builder in default_query_builders().items():
            hosted.register_query(query_name, builder(protected))
        self._wire_degrade(name, session)
        self._sessions[name] = hosted
        self.record(name, "restore-session", source=source)
        return hosted

    # ------------------------------------------------------------------
    def record(self, session: str, action: str, **detail: Any) -> AuditEvent:
        """Append one event to the audit log (thread-safe, monotonic order).

        With a durable store the sequence number and timestamp are allocated
        by the store's append, so events are totally ordered across restarts
        and across worker processes; in-memory mode numbers events in the
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
        previous incarnations and sibling workers are included, in global
        sequence order.
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
