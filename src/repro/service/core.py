"""The measurement service: hosted sessions, admission, replay and the measure.

:class:`MeasurementService` is the transport-independent heart of
``repro serve``; the HTTP layer (:mod:`repro.service.http`) is a thin JSON
shim over it, and tests and embedded use drive it directly.

:meth:`MeasurementService.measure` is the request path.  It admits a
request, replays a released answer from the
:class:`~repro.service.cache.AnswerCache` when there is one, and otherwise
runs one :meth:`PrivacySession.measure` for it, on the caller's thread,
under its session name's lock.  The cache is consulted again under the
lock, so concurrent identical (query, ε) requests are charged once and the
others replay the first one's release.  Distinct sessions never contend
beyond the registry's ``service.state`` lock, which guards the service's
tables too (session-lock waiters, counters, the cache and the rate
limiter's buckets) for a lookup at a time.  A durable fresh measurement is
one store transaction (:meth:`MeasurementService._measure`); a failure
before its commit charges nothing, and one after it leaves a release that
any retry replays for free.  Batching pays inside one
``PrivacySession.measure(*requests)`` call, where the requests share
subplans; the service builds no batches across requests.
"""

from __future__ import annotations

import contextlib
import sqlite3
import sys
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from ..core.dataset import WeightedDataset
from ..core.queryable import Queryable
from ..exceptions import (
    BudgetExceededError,
    CircuitOpenError,
    DeadlineExceededError,
    FaultInjectedError,
    PersistenceError,
    ServiceOverloadedError,
)
from ..resilience.deadline import Deadline, deadline_scope
from ..resilience.policy import CircuitBreaker, RetryPolicy
from ..sanitize import ordered_lock
from .cache import AnswerCache
from .ratelimit import RateLimiter
from .registry import AuditEvent, HostedSession, SessionRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.aggregation import NoisyCountResult

__all__ = ["MeasurementAnswer", "MeasurementService"]


@dataclass
class MeasurementAnswer:
    """What the service returns for one measurement request."""

    session: str
    query: str
    epsilon: float
    result: "NoisyCountResult"
    charged: dict[str, float]
    cached: bool


class _Combiner:
    """One session name's lock and the count of requests waiting on it.

    Keyed by *name*, never by replica, and never dropped: an evicted replica
    and its re-materialised successor never measure at once.
    """

    def __init__(self) -> None:
        self.lock = ordered_lock("service.combine", 9, io_ok=True)
        self.waiting = 0


class MeasurementService:
    """A concurrent, multi-tenant wPINQ measurement service.

    A measurement runs on the thread that asks for it, under its session
    name's lock.  The service's tables — the session-lock waiters, the
    counters, the answer cache and the rate limiter's buckets — are guarded
    by the registry's ``service.state`` lock.

    Parameters
    ----------
    max_pending:
        Backpressure bound: how many requests may wait on or run under one
        session's lock; one more raises
        :class:`~repro.exceptions.ServiceOverloadedError`.
    default_executor:
        Execution backend given to sessions created without an explicit one.
    ledger_path:
        Optional path to a durable ledger file (sqlite, created if missing).
        When given, the service becomes restart-safe: budgets charge through
        a :class:`~repro.persistence.ledger.DurableLedger` over the store's
        budgets table,
        sessions / audit events / released answers persist, and everything
        recorded before a crash is recovered on the next open.  The service
        holds the file until :meth:`shutdown`: a second opener is refused
        with :class:`~repro.exceptions.PersistenceError`.
    rate_limit / rate_burst:
        Per-tenant token-bucket admission: sustained requests/second and
        burst capacity per session (None disables rate limiting).
    max_total_pending:
        Global load-shedding bound on the requests waiting on or running
        under every session's lock together (None disables shedding).
    deadline_ms:
        Default end-to-end deadline applied to measurements that arrive
        without one (None disables the default).  Deadlines are enforced
        pre-charge only — see :mod:`repro.resilience.deadline`.
    breaker_threshold / breaker_reset:
        Consecutive-failure threshold and open-window seconds for the
        durable-ledger circuit breaker (only meaningful with a ledger).
    """

    def __init__(
        self,
        max_pending: int = 128,
        default_executor: str = "eager",
        ledger_path: str | None = None,
        rate_limit: float | None = None,
        rate_burst: float | None = None,
        max_total_pending: int | None = None,
        deadline_ms: float | None = None,
        breaker_threshold: int | None = None,
        breaker_reset: float = 5.0,
    ) -> None:
        self.cache = AnswerCache()
        # Durable released answers: read after the in-memory cache misses,
        # written with every release.
        self.store = None
        if ledger_path is not None:
            from ..persistence.wal import LedgerStore

            self.store = LedgerStore(ledger_path)
        try:
            if max_pending < 1:
                raise ValueError("max_pending must be a positive integer")
            if max_total_pending is not None and max_total_pending < 1:
                raise ValueError("max_total_pending must be a positive integer")
            self._rate_limiter = None
            if rate_limit is not None:
                self._rate_limiter = RateLimiter(rate_limit, rate_burst)
            self.registry = SessionRegistry(store=self.store)
        except BaseException:
            # A service that was never built must not keep its file held.
            if self.store is not None:
                self.store.close()
            raise
        self._default_executor = default_executor
        self.deadline_ms = deadline_ms
        self._max_pending = max_pending
        self._max_total_pending = max_total_pending
        # Repeated ledger failures trip the breaker and later requests fail
        # fast (503 + retry_after); transient ones in the retry-safe window
        # are retried with seeded backoff first.
        self._ledger_breaker = None if self.store is None else CircuitBreaker(
            threshold=breaker_threshold or 5, reset_after=breaker_reset, name="ledger"
        )
        self._ledger_retry = RetryPolicy(
            retries=2, base_delay=0.02, max_delay=0.5, seed=0
        )
        self._combiners: dict[str, _Combiner] = {}
        self._closed = False
        # Requests past the closed check and not yet finished: shutdown
        # waits for them before the store may close.
        self._active = 0
        self._idle = threading.Event()
        # Requests waiting on or running under any session's lock, and the
        # ones shed because there were max_total_pending of them.
        self._pending = 0
        self._shed = 0
        self._requests = 0
        self._batches = 0

    # ------------------------------------------------------------------
    # Tenant/session management
    # ------------------------------------------------------------------
    def create_session(
        self,
        name: str,
        records: WeightedDataset | Mapping[Any, float] | Iterable[Any],
        total_epsilon: float = float("inf"),
        seed: int | None = None,
        executor: str | None = None,
        source: str = "edges",
        queries: Mapping[str, Callable[[Queryable], Queryable]] | None = None,
    ) -> HostedSession:
        """Host a new protected dataset under ``name`` (see the registry)."""
        return self.registry.create(
            name,
            records,
            total_epsilon=total_epsilon,
            seed=seed,
            executor=executor or self._default_executor,
            source=source,
            queries=queries,
        )

    def close_session(self, name: str) -> None:
        """Drop a hosted session, its cached released answers and its token
        bucket.

        With a durable ledger, the scope's budget records survive the close:
        re-creating the same name resumes its committed ε spend.
        """
        self.registry.close(name)
        with self.registry.lock:
            self.cache.drop_scope(name)
            if self._rate_limiter is not None:
                self._rate_limiter.forget(name)

    def sessions(self) -> list[dict[str, Any]]:
        """JSON-friendly summaries of every hosted session."""
        return self.registry.describe()

    def session(self, name: str) -> HostedSession:
        """The hosted session registered under ``name``."""
        return self.registry.get(name)

    def budget_report(self, name: str) -> dict[str, dict[str, float]]:
        """Per-source budget summary of one hosted session."""
        return self.registry.get(name).budget_report()

    def audit(self, session: str | None = None) -> list[AuditEvent]:
        """The audit log (optionally one session's slice)."""
        return self.registry.audit(session)

    # ------------------------------------------------------------------
    # Lifecycle and counters
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Request, cache, admission and exact-answer counters plus the
        session names.

        ``requests`` counts the requests that reached their session's lock
        and ``batches`` the ledger-charged measure passes.  ``exact`` is how
        an operator sees that plan executions do not grow with requests:
        ``computed`` is bounded by ``held`` (the hosted queries), ``reused``
        counts the measurements that skipped evaluation.
        """
        with self.registry.lock:
            stats: dict[str, Any] = {
                "requests": self._requests,
                "batches": self._batches,
                "cache": self.cache.stats(),
            }
            if self._rate_limiter is not None:
                stats["rate_limit"] = self._rate_limiter.stats()
            if self._max_total_pending is not None:
                stats["load_shedding"] = {
                    "pending": self._pending,
                    "shed": self._shed,
                    "max_total": self._max_total_pending,
                }
        if self._ledger_breaker is not None:
            stats["ledger_breaker"] = self._ledger_breaker.stats()
        stats["exact"] = self.registry.exact_stats()
        stats["sessions"] = self.registry.names()
        if self.store is not None:
            stats["store"] = self.store.stats()
        return stats

    def shutdown(self) -> None:
        """Refuse new measurements, finish the admitted ones, close the store.

        Every request admitted before the call finishes before the durable
        ledger closes, so every charge that started is committed or rolled
        back (what ``repro serve`` does on SIGINT and SIGTERM).
        """
        with self.registry.lock:
            self._closed = True
            if not self._active:
                self._idle.set()
        self._idle.wait()
        if self.store is not None:
            self.store.close()

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------
    def measure(
        self,
        session: str,
        query: str,
        epsilon: float,
        deadline: Deadline | None = None,
    ) -> MeasurementAnswer:
        """One measurement against a hosted session, run on this thread.

        ``deadline`` defaults to the service-wide ``deadline_ms`` (when
        configured); pass an explicit :class:`~repro.resilience.deadline
        .Deadline` to override it per request.

        Admission refuses in this order, each step before the next consumes
        anything: a closed service (before the registry or the store is
        touched), an unknown session or query, an expired ``deadline``, an
        open ledger breaker, the tenant's token bucket (after the name is
        validated, so garbage names allocate no bucket); then a cached answer
        replays, or the global pending bound or the session's ``max_pending``
        (requests waiting on or running under its lock) refuses with
        :class:`~repro.exceptions.ServiceOverloadedError`.  A deadline that
        expires while the request waits for the lock refuses, uncharged.
        """
        if deadline is None and self.deadline_ms is not None:
            deadline = Deadline.after(self.deadline_ms / 1000.0)
        with self.registry.lock:
            if self._closed:
                raise ServiceOverloadedError(
                    "the service is shutting down; retry later"
                )
            self._active += 1
        try:
            return self._admit(session, query, epsilon, deadline)
        finally:
            with self.registry.lock:
                self._active -= 1
                if self._closed and not self._active:
                    self._idle.set()

    def _admit(
        self, session_name: str, query: str, epsilon: float, deadline: Deadline | None
    ) -> MeasurementAnswer:
        hosted = self.registry.get(session_name)
        queryable = hosted.queryable(query)
        # A release keeps both names for good (audit, ledger, cache key):
        # the session's own name object and one interned query name.
        session_name, query = hosted.name, sys.intern(str(query))
        epsilon = float(epsilon)
        if deadline is not None and deadline.expired():
            raise DeadlineExceededError(
                f"deadline expired before admission of {query!r} "
                f"on session {session_name!r}; no budget was charged"
            )
        breaker = self._ledger_breaker
        if breaker is not None and breaker.state == "open":
            raise CircuitOpenError(
                "durable ledger circuit breaker is open; failing fast",
                retry_after=breaker.retry_after(),
            )
        if self._rate_limiter is not None:
            with self.registry.lock:
                self._rate_limiter.admit(session_name)
        answer = self._replay(session_name, query, epsilon, queryable, False)
        if answer is not None:
            return answer
        return self._run(hosted, queryable, query, epsilon, deadline)

    def _run(
        self, hosted: HostedSession, queryable, query: str, epsilon: float, deadline
    ) -> MeasurementAnswer:
        """Measure under the session name's lock; at most ``max_pending``
        requests wait on or run under it, and ``max_total_pending`` under
        every session's lock together."""
        session_name = hosted.name
        with self.registry.lock:
            limit = self._max_total_pending
            if limit is not None and self._pending >= limit:
                self._shed += 1
                raise ServiceOverloadedError(
                    f"service has {self._pending} pending measurements across "
                    f"all sessions (limit {limit}); shedding load — "
                    f"retry with backoff"
                )
            combiner = self._combiners.get(session_name)
            if combiner is None:
                combiner = self._combiners[session_name] = _Combiner()
            if combiner.waiting >= self._max_pending:
                raise ServiceOverloadedError(
                    f"session {session_name!r} has {combiner.waiting} pending "
                    f"measurements (limit {self._max_pending}); retry later"
                )
            combiner.waiting += 1
            self._pending += 1
            self._requests += 1
        try:
            with combiner.lock:
                if deadline is not None and deadline.expired():
                    # Waited out behind a running measure: nothing was
                    # charged, so the refusal is free.
                    self.registry.record(
                        session_name, "deadline-shed", query=query, epsilon=epsilon
                    )
                    raise DeadlineExceededError(
                        f"deadline expired while {query!r} waited on session "
                        f"{session_name!r}; no budget was charged"
                    )
                # An identical request that held the lock first has released
                # the answer: replay it for free.
                answer = self._replay(session_name, query, epsilon, queryable, True)
                if answer is not None:
                    return answer
                try:
                    released = self._measure(
                        hosted, queryable, query, epsilon, deadline
                    )
                except BudgetExceededError as exc:
                    self.registry.record(
                        session_name, "refused", query=query, epsilon=epsilon,
                        reason=str(exc),
                    )
                    raise
                result = released[0]
                with self.registry.lock:
                    self._batches += 1
                    self.cache.put(session_name, queryable.plan, epsilon, result)
                return MeasurementAnswer(
                    session_name, query, epsilon, result, released.charged, cached=False
                )
        finally:
            with self.registry.lock:
                combiner.waiting -= 1
                self._pending -= 1

    def _replay(
        self, session_name: str, query: str, epsilon: float, queryable, durable: bool
    ) -> MeasurementAnswer | None:
        """A released answer replayed for free, recorded as a cache hit: from
        the in-memory cache, or, when ``durable`` (under the session's lock:
        a fresh request reads the store once), from the store, rehydrated so
        repeats stay off disk.
        """
        with self.registry.lock:
            result = self.cache.get(session_name, queryable.plan, epsilon)
        if result is None and durable and self.store is not None:
            values = self.store.get_release(session_name, query, epsilon)
            if values is not None:
                from ..core.aggregation import NoisyCountResult

                released = NoisyCountResult.from_released(
                    values, epsilon, plan=queryable.plan, query_name=query
                )
                with self.registry.lock:
                    self.cache.put(session_name, queryable.plan, epsilon, released)
                    result = self.cache.get(session_name, queryable.plan, epsilon)
        if result is None:
            return None
        self.registry.record(session_name, "cache-hit", query=query, epsilon=epsilon)
        return MeasurementAnswer(session_name, query, epsilon, result, {}, cached=True)

    def _measure(self, hosted: HostedSession, queryable, query, epsilon, deadline):
        """One ledger-charged measurement, under the resilience policies.

        The held plan is evaluated first, outside any transaction; then the
        charge, the noise, the ``measure`` audit row and the ``releases`` row
        commit in one store transaction (in memory: none).  The deadline
        scope reaches the pre-charge check in ``PrivacySession.measure`` and
        the sharded executor's pool task timeouts.  Retry-safe ledger
        failures are retried with seeded backoff; every ledger failure
        charges the circuit breaker.
        """
        session, name = hosted.session, hosted.name
        begin = contextlib.nullcontext if self.store is None else self._transaction

        def attempt():
            with begin(session):
                released = session.measure((queryable, epsilon, query))
                self.registry.record(
                    name, "measure", queries=[query], epsilons=[epsilon],
                    charged=dict(released.charged),
                )
                if self.store is not None:
                    self.store.put_release(
                        name, query, epsilon, list(released[0].items())
                    )
            return released

        with deadline_scope(deadline):
            session.compute_held(queryable)
            breaker = self._ledger_breaker
            if breaker is None:
                return attempt()
            breaker.check()
            try:
                result = self._ledger_retry.call(
                    attempt, retryable=self._ledger_retryable
                )
            except BaseException as exc:
                # Resolve the breaker on every outcome (a claimed half-open
                # probe must never dangle): only ledger failures count
                # against it — budget refusals, plan errors and deadline
                # refusals are the service working as intended.
                if self._is_ledger_failure(exc):
                    breaker.record_failure()
                else:
                    breaker.record_success()
                raise
            breaker.record_success()
            return result

    @contextlib.contextmanager
    def _transaction(self, session):
        """One release's store transaction, entered under the measure lock
        (the level below the store's mutex) that the measure re-enters."""
        with session.measure_lock, self.store.transaction():
            yield

    @staticmethod
    def _is_ledger_failure(exc: BaseException) -> bool:
        if isinstance(exc, (sqlite3.Error, PersistenceError)):
            return True
        return isinstance(exc, FaultInjectedError) and exc.point.startswith("wal.")

    @staticmethod
    def _ledger_retryable(exc: BaseException) -> bool:
        """Whether retrying a failed release is double-charge-safe.

        Safe while the failure strikes *before* its transaction commits
        (busy/locked sqlite writers; injected faults up to
        ``wal.pre_commit``): it rolls back with nothing charged.  After the
        commit (``wal.post_commit``) the error propagates, and a retry
        replays the committed release for free.
        """
        if isinstance(exc, sqlite3.OperationalError):
            return True
        return isinstance(exc, FaultInjectedError) and exc.point in (
            "wal.intent_commit",
            "wal.pre_commit",
        )
