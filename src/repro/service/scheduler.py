"""Request scheduling: fuse concurrent measurements into one executor pass.

N clients measuring the same hosted session at (nearly) the same moment
should not cost N plan walks: :meth:`PrivacySession.measure` already charges
a whole batch atomically and evaluates shared sub-plans once, so the
scheduler's job is to *build* those batches out of concurrent traffic.

The mechanics are a per-session pending queue drained by a worker pool:

* :meth:`BatchingScheduler.submit` enqueues a request and returns a
  :class:`~concurrent.futures.Future`; at most one drain task per session is
  in flight, so while one fused batch executes, newly arriving requests pile
  up and form the next batch — the classic group-commit pattern, which makes
  batch sizes adapt to load with no tuning;
* identical requests (same plan identity, same ε) inside a batch collapse to
  a single measurement whose released answer every requester receives —
  combined with the :class:`~repro.service.cache.AnswerCache` consulted both
  on submit and again at drain time, a repeated question is answered once,
  charged once, and replayed for free thereafter;
* each session's queue is bounded (``max_pending``): a full queue rejects new
  submissions with :class:`~repro.exceptions.ServiceOverloadedError` instead
  of queueing without limit (backpressure);
* a fused batch is all-or-nothing at the ledger, so when one tenant's request
  would exhaust the budget the scheduler retries the batch's requests
  individually — only the unaffordable measurements fail, innocent co-batched
  requests still succeed.

Distinct sessions drain on distinct workers and never contend: the worker
pool size (``workers``) caps cross-tenant parallelism.
"""

from __future__ import annotations

import os
import sqlite3
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

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
from .cache import AnswerCache
from .registry import HostedSession, SessionRegistry
from ..sanitize import ordered_lock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.aggregation import NoisyCountResult
    from ..persistence.ratelimit import LoadShedder, RateLimiter
    from ..persistence.wal import LedgerStore

__all__ = ["BatchingScheduler", "MeasurementAnswer"]


@dataclass
class MeasurementAnswer:
    """What the service returns for one measurement request."""

    session: str
    query: str
    epsilon: float
    result: "NoisyCountResult"
    charged: dict[str, float]
    cached: bool
    batch_size: int


@dataclass
class _PendingRequest:
    """One enqueued measurement awaiting its fused batch."""

    query: str
    epsilon: float
    queryable: object
    future: Future
    deadline: Deadline | None = field(default=None)


class BatchingScheduler:
    """Fuses concurrent same-session measurements into batched executor passes."""

    def __init__(
        self,
        registry: SessionRegistry,
        cache: AnswerCache | None = None,
        workers: int | None = None,
        max_pending: int = 128,
        store: "LedgerStore | None" = None,
        rate_limiter: "RateLimiter | None" = None,
        shedder: "LoadShedder | None" = None,
        breaker_threshold: int | None = None,
        breaker_reset: float = 5.0,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be a positive integer")
        self._registry = registry
        self._cache = cache if cache is not None else AnswerCache()
        # Durable released-answer store: consulted after the in-memory cache
        # (an identical measurement released before a restart, or by another
        # worker process, replays from disk at zero budget) and written on
        # every release.
        self._store = store
        # Admission control, checked in order once the session name has been
        # validated against the registry: per-tenant token bucket, then the
        # global pending bound, then the per-session queue bound.
        self._rate_limiter = rate_limiter
        self._shedder = shedder
        # The durable-ledger circuit breaker: repeated ledger failures trip
        # it and subsequent submissions fail fast (503 + retry_after) instead
        # of queueing behind a broken sqlite file.  Transient ledger errors
        # in the retry-safe window (before the charge commits) are
        # retried with seeded backoff first.
        self._ledger_breaker: CircuitBreaker | None = None
        self._ledger_retry: RetryPolicy | None = None
        if store is not None:
            self._ledger_breaker = CircuitBreaker(
                threshold=breaker_threshold if breaker_threshold else 5,
                reset_after=breaker_reset,
                name="ledger",
            )
            self._ledger_retry = (
                retry_policy
                if retry_policy is not None
                else RetryPolicy(retries=2, base_delay=0.02, max_delay=0.5, seed=0)
            )
        # Scale the drain pool with the machine rather than a flat 4: each
        # worker drains a different session's queue (batching is per-session),
        # and the columnar kernels release the GIL, so more cores really do
        # mean more concurrent drains.  Bounded at 8 — drains are short-lived,
        # and a wide pool mostly adds idle threads on big hosts.
        if workers is None:
            workers = max(2, min(8, os.cpu_count() or 1))
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-service"
        )
        self._lock = ordered_lock("service.scheduler", 16)
        self._queues: dict[str, list[_PendingRequest]] = {}
        self._draining: set[str] = set()
        self._max_pending = max_pending
        self._requests = 0
        self._batches = 0
        self._largest_batch = 0

    # ------------------------------------------------------------------
    @property
    def cache(self) -> AnswerCache:
        """The answer-reuse cache consulted before any data is touched."""
        return self._cache

    def stats(self) -> dict[str, int]:
        """Request/batch counters plus cache and admission statistics."""
        with self._lock:
            stats = {
                "requests": self._requests,
                "batches": self._batches,
                "largest_batch": self._largest_batch,
            }
        stats["cache"] = self._cache.stats()
        if self._rate_limiter is not None:
            stats["rate_limit"] = self._rate_limiter.stats()
        if self._shedder is not None:
            stats["load_shedding"] = self._shedder.stats()
        if self._ledger_breaker is not None:
            stats["ledger_breaker"] = self._ledger_breaker.stats()
        return stats

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting drain tasks and (optionally) wait for them."""
        self._pool.shutdown(wait=wait)

    # ------------------------------------------------------------------
    def submit(
        self,
        session_name: str,
        query: str,
        epsilon: float,
        deadline: Deadline | None = None,
    ) -> Future:
        """Enqueue one measurement; the future resolves to a
        :class:`MeasurementAnswer` (or raises the measurement's error).

        Raises :class:`~repro.exceptions.ServiceError` for unknown
        sessions/queries, :class:`~repro.exceptions.RateLimitedError` when
        the tenant exceeds its token bucket, and
        :class:`~repro.exceptions.ServiceOverloadedError` immediately when
        the global pending bound or the session's pending queue is full.
        The session name is validated *before* rate-limit admission so
        garbage names never allocate per-tenant token buckets (which are
        only reclaimed when a real session closes).

        An already-expired ``deadline`` is refused here, at admission, with
        :class:`~repro.exceptions.DeadlineExceededError` — before any rate
        token, queue slot, or ε is consumed.  A still-live deadline rides
        with the request: it is re-checked (pre-charge) when its batch
        drains, and bounds the executor's pool task timeouts.  When the
        ledger circuit breaker is open, submissions fail fast with
        :class:`~repro.exceptions.CircuitOpenError` rather than queueing
        writes behind a broken store.
        """
        hosted = self._registry.get(session_name)
        queryable = hosted.queryable(query)
        # Every fresh release keeps both names for good (audit log, ledger
        # history, answer-cache key, the answer itself): make them the
        # session's own name object and one interned query name rather than
        # this request's private copies off the wire.
        session_name, query = hosted.name, sys.intern(str(query))
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
            self._rate_limiter.admit(session_name)
        future: Future = Future()

        cached = self._cached_answer(session_name, query, epsilon, queryable)
        if cached is not None:
            self._registry.record(
                session_name, "cache-hit", query=query, epsilon=epsilon
            )
            future.set_result(
                MeasurementAnswer(
                    session=session_name,
                    query=query,
                    epsilon=float(epsilon),
                    result=cached,
                    charged={},
                    cached=True,
                    batch_size=0,
                )
            )
            return future

        if self._shedder is not None:
            self._shedder.admit()
            future.add_done_callback(lambda _done: self._shedder.release())
        pending = _PendingRequest(query, float(epsilon), queryable, future, deadline)
        try:
            with self._lock:
                queue = self._queues.setdefault(session_name, [])
                if len(queue) >= self._max_pending:
                    raise ServiceOverloadedError(
                        f"session {session_name!r} has {len(queue)} pending "
                        f"measurements (limit {self._max_pending}); retry later"
                    )
                queue.append(pending)
                self._requests += 1
                start_drain = session_name not in self._draining
                if start_drain:
                    self._draining.add(session_name)
        except BaseException as exc:
            # The request never enqueued: resolve its future so the shedder's
            # done-callback releases the admission slot it was counted for.
            future.set_exception(exc)
            raise
        if start_drain:
            self._pool.submit(self._drain, session_name)
        return future

    def _cached_answer(
        self, session_name: str, query: str, epsilon: float, queryable
    ) -> "NoisyCountResult | None":
        """In-memory cache first, then the durable released-answer store.

        A durable hit (an answer released before a restart, or by a sibling
        worker) is rehydrated into the in-memory cache keyed by this worker's
        plan object, so subsequent repeats stay off disk.
        """
        cached = self._cache.get(session_name, queryable.plan, epsilon)
        if cached is not None:
            return cached
        if self._store is None:
            return None
        values = self._store.get_release(session_name, query, epsilon)
        if values is None:
            return None
        from ..core.aggregation import NoisyCountResult

        result = NoisyCountResult.from_released(
            values, epsilon, plan=queryable.plan, query_name=query
        )
        self._cache.put(session_name, queryable.plan, epsilon, result)
        return self._cache.get(session_name, queryable.plan, epsilon)

    def measure(
        self,
        session_name: str,
        query: str,
        epsilon: float,
        deadline: Deadline | None = None,
    ) -> MeasurementAnswer:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(session_name, query, epsilon, deadline=deadline).result()

    @contextmanager
    def hold_batches(self, session_name: str) -> Iterator[None]:
        """Delay draining one idle session so queued requests fuse.

        A deterministic testing/benchmark hook: while the context is held,
        submissions against ``session_name`` enqueue without starting a drain
        task; on exit everything queued drains as one fused batch.  Only
        meaningful for a session with no drain in flight.
        """
        with self._lock:
            was_draining = session_name in self._draining
            self._draining.add(session_name)
        try:
            yield
        finally:
            start = False
            with self._lock:
                if not was_draining:
                    if self._queues.get(session_name):
                        start = True  # hand the held slot to a real drain task
                    else:
                        self._draining.discard(session_name)
            if start:
                self._pool.submit(self._drain, session_name)

    # ------------------------------------------------------------------
    def _drain(self, session_name: str) -> None:
        """Worker loop: keep executing this session's fused batches until the
        queue is empty, then release the drain slot."""
        while True:
            with self._lock:
                batch = self._queues.get(session_name, [])
                if not batch:
                    self._draining.discard(session_name)
                    return
                self._queues[session_name] = []
            try:
                self._run_batch(session_name, batch)
            except BaseException as exc:  # pragma: no cover - defensive
                for item in batch:
                    if not item.future.done():
                        item.future.set_exception(exc)

    def _run_batch(self, session_name: str, batch: list[_PendingRequest]) -> None:
        hosted = self._registry.get(session_name)

        # A batch that queued behind a running one may repeat measurements the
        # previous batch just released: re-check the cache, then collapse the
        # remaining identical (plan, ε) requests onto one measurement each.
        groups: dict[tuple[int, float], list[_PendingRequest]] = {}
        for item in batch:
            if item.deadline is not None and item.deadline.expired():
                # Shed pre-charge: the request waited out its deadline in the
                # queue.  Nothing was charged, so the refusal is free — and a
                # retry of the same (query, ε) may still hit the cache if a
                # co-batched twin goes on to release it.
                self._registry.record(
                    session_name,
                    "deadline-shed",
                    query=item.query,
                    epsilon=item.epsilon,
                )
                item.future.set_exception(
                    DeadlineExceededError(
                        f"deadline expired while {item.query!r} was queued "
                        f"on session {session_name!r}; no budget was charged"
                    )
                )
                continue
            answer = self._cached_answer(
                session_name, item.query, item.epsilon, item.queryable
            )
            if answer is not None:
                self._registry.record(
                    session_name, "cache-hit", query=item.query, epsilon=item.epsilon
                )
                item.future.set_result(
                    MeasurementAnswer(
                        session=session_name,
                        query=item.query,
                        epsilon=item.epsilon,
                        result=answer,
                        charged={},
                        cached=True,
                        batch_size=0,
                    )
                )
                continue
            groups.setdefault((id(item.queryable.plan), item.epsilon), []).append(item)
        if not groups:
            return

        representatives = [items[0] for items in groups.values()]
        with self._lock:
            self._batches += 1
            self._largest_batch = max(self._largest_batch, len(representatives))
        try:
            released = self._measure(
                hosted,
                [
                    (item.queryable, item.epsilon, item.query)
                    for item in representatives
                ],
                self._group_deadline(representatives),
            )
        except BudgetExceededError:
            # The fused batch is all-or-nothing at the ledger; retry each
            # measurement alone so only the unaffordable ones fail.
            self._run_individually(session_name, hosted, representatives, groups)
            return
        except BaseException as exc:
            for items in groups.values():
                for item in items:
                    item.future.set_exception(exc)
            return

        self._registry.record(
            session_name,
            "measure",
            queries=[item.query for item in representatives],
            epsilons=[item.epsilon for item in representatives],
            fused=len(representatives),
            charged=dict(released.charged),
        )
        for representative, result in zip(representatives, released):
            self._finish_group(
                session_name,
                groups[(id(representative.queryable.plan), representative.epsilon)],
                result,
                batch_size=len(representatives),
            )

    @staticmethod
    def _group_deadline(representatives: list[_PendingRequest]) -> Deadline | None:
        """The deadline governing one fused executor pass.

        ``None`` (no constraint) if any fused request has no deadline —
        an unconstrained request must never be shed on a co-batched
        tenant's clock; otherwise the *latest* deadline in the group, the
        most permissive bound that still honours someone's.
        """
        deadlines = []
        for item in representatives:
            if item.deadline is None:
                return None
            deadlines.append(item.deadline)
        return max(deadlines, key=lambda item: item.expires_at)

    def _measure(self, hosted: HostedSession, specs: list, deadline):
        """One ledger-charged executor pass, under the resilience policies.

        The deadline scope makes the request deadline visible to the
        pre-charge check in ``PrivacySession.measure`` and to the sharded
        executor's pool task timeouts (the drain thread evaluates
        synchronously, so the context variable propagates).  Retry-safe
        ledger failures — those that strike before the charge's transaction
        commits, so it rolls back with nothing charged — are retried with
        seeded backoff; every ledger failure charges the circuit breaker.
        """
        def attempt():
            return hosted.session.measure(*specs)

        with deadline_scope(deadline):
            breaker = self._ledger_breaker
            if breaker is None:
                return attempt()
            breaker.check()
            try:
                if self._ledger_retry is not None:
                    result = self._ledger_retry.call(
                        attempt, retryable=self._ledger_retryable
                    )
                else:
                    result = attempt()
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

    @staticmethod
    def _is_ledger_failure(exc: BaseException) -> bool:
        if isinstance(exc, (sqlite3.Error, PersistenceError)):
            return True
        return isinstance(exc, FaultInjectedError) and exc.point.startswith("wal.")

    @staticmethod
    def _ledger_retryable(exc: BaseException) -> bool:
        """Whether retrying a failed charge is double-charge-safe.

        Safe while the failure strikes *before* the charge's transaction
        commits (busy/locked sqlite writers; injected faults up to
        ``wal.pre_commit``) — the transaction rolls back with nothing
        charged, so the retry is the first effective charge.  A failure
        *after* the commit fsync
        (``wal.post_commit``) means the ledger already charged: an automatic
        retry would charge a second time, so it propagates instead — the
        same contract as a crash in that window, where the spent ε is
        durable but unreleased (the chaos invariants bound it as a failed
        attempt).
        """
        if isinstance(exc, sqlite3.OperationalError):
            return True
        return isinstance(exc, FaultInjectedError) and exc.point in (
            "wal.intent_commit",
            "wal.pre_commit",
        )

    def _run_individually(
        self,
        session_name: str,
        hosted: HostedSession,
        representatives: list[_PendingRequest],
        groups: dict[tuple[int, float], list[_PendingRequest]],
    ) -> None:
        for item in representatives:
            members = groups[(id(item.queryable.plan), item.epsilon)]
            try:
                released = self._measure(
                    hosted,
                    [(item.queryable, item.epsilon, item.query)],
                    item.deadline,
                )
            except BaseException as exc:
                if isinstance(exc, BudgetExceededError):
                    self._registry.record(
                        session_name,
                        "refused",
                        query=item.query,
                        epsilon=item.epsilon,
                        reason=str(exc),
                    )
                for member in members:
                    member.future.set_exception(exc)
                continue
            self._registry.record(
                session_name,
                "measure",
                queries=[item.query],
                epsilons=[item.epsilon],
                fused=1,
                charged=dict(released.charged),
            )
            self._finish_group(session_name, members, released[0], batch_size=1)

    def _finish_group(
        self,
        session_name: str,
        members: list[_PendingRequest],
        result: "NoisyCountResult",
        batch_size: int,
    ) -> None:
        first = members[0]
        # The answer is released now: later identical requests replay it free.
        self._cache.put(session_name, first.queryable.plan, first.epsilon, result)
        if self._store is not None:
            # Durable copy, so the free replay survives restarts and reaches
            # sibling worker processes.  Written only after the ledger
            # accepted the charge, never speculatively.
            self._store.put_release(
                session_name, first.query, first.epsilon, list(result.items())
            )
        charged = first.queryable.privacy_cost(first.epsilon)
        for index, member in enumerate(members):
            member.future.set_result(
                MeasurementAnswer(
                    session=session_name,
                    query=member.query,
                    epsilon=member.epsilon,
                    result=result,
                    # Duplicates collapsed onto the first request are free.
                    charged=dict(charged) if index == 0 else {},
                    cached=index > 0,
                    batch_size=batch_size,
                )
            )
