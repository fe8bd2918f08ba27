"""The measurement service facade: registry + scheduler + answer cache.

:class:`MeasurementService` is the transport-independent heart of
``repro serve``: it hosts named tenant sessions, runs each measurement
request as one charge through the thread-safe budget ledger, and replays
previously released answers for free.  The HTTP layer
(:mod:`repro.service.http`) is a thin JSON shim over this object; tests and
embedded use drive it directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.deadline import Deadline

from ..core.dataset import WeightedDataset
from ..core.queryable import Queryable
from .cache import AnswerCache
from .registry import AuditEvent, HostedSession, SessionRegistry
from .scheduler import BatchingScheduler, MeasurementAnswer

__all__ = ["MeasurementService"]


class MeasurementService:
    """A concurrent, multi-tenant wPINQ measurement service.

    A measurement runs on the thread that asks for it (see
    :mod:`repro.service.scheduler`).

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
        Global load-shedding bound on pending measurements across all
        sessions (None disables shedding).
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
        rate_limiter = None
        if rate_limit is not None:
            from ..persistence.ratelimit import RateLimiter

            rate_limiter = RateLimiter(rate_limit, rate_burst)
        self.cache = AnswerCache()
        self.store = None
        if ledger_path is not None:
            from ..persistence.wal import LedgerStore

            self.store = LedgerStore(ledger_path)
        try:
            self.registry = SessionRegistry(store=self.store)
            self.scheduler = BatchingScheduler(
                self.registry,
                cache=self.cache,
                max_pending=max_pending,
                store=self.store,
                rate_limiter=rate_limiter,
                max_total_pending=max_total_pending,
                breaker_threshold=breaker_threshold,
                breaker_reset=breaker_reset,
            )
        except BaseException:
            # A service that was never built must not keep its file held.
            if self.store is not None:
                self.store.close()
            raise
        self._default_executor = default_executor
        self.deadline_ms = deadline_ms

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
        """Drop a hosted session and evict its cached released answers.

        With a durable ledger, the scope's budget records survive the close:
        re-creating the same name resumes its committed ε spend.
        """
        self.registry.close(name)
        self.scheduler.forget(name)

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
    # Measurements
    # ------------------------------------------------------------------
    def measure(
        self,
        session: str,
        query: str,
        epsilon: float,
        deadline: "Deadline | None" = None,
    ) -> MeasurementAnswer:
        """One measurement against a hosted session, run on this thread.

        ``deadline`` defaults to the service-wide ``deadline_ms`` (when
        configured); pass an explicit :class:`~repro.resilience.deadline
        .Deadline` to override it per request.
        """
        if deadline is None and self.deadline_ms is not None:
            from ..resilience.deadline import Deadline

            deadline = Deadline.after(self.deadline_ms / 1000.0)
        return self.scheduler.submit(session, query, epsilon, deadline=deadline)

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Scheduler, cache and exact-answer counters plus the session names.

        ``exact`` is how an operator sees that plan executions do not grow
        with requests: ``computed`` is bounded by ``held`` (the hosted
        queries), ``reused`` counts the measurements that skipped evaluation.
        """
        stats: dict[str, Any] = self.scheduler.stats()
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
        self.scheduler.shutdown()
        if self.store is not None:
            self.store.close()
