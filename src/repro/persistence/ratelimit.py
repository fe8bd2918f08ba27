"""Per-tenant token-bucket rate limiting and global load shedding.

Backpressure (the bounded per-session queues of
:mod:`repro.service.scheduler`) protects the server once work has been
admitted; these two admission controls decide what gets admitted at all:

* :class:`TokenBucket` / :class:`RateLimiter` — a classic token bucket per
  tenant session: sustained request rate is capped at ``rate`` per second
  with bursts up to ``burst``, so one chatty tenant cannot starve the
  server that every tenant shares.  Refusals raise
  :class:`~repro.exceptions.RateLimitedError` (HTTP 429) carrying a
  ``retry_after`` hint — the time until the bucket holds a token again.
* :class:`LoadShedder` — a global bound on pending work across *all*
  sessions.  Per-session queues bound each tenant individually; with
  thousands of tenants the sum still grows without limit, so beyond
  ``max_total`` pending requests new admissions are shed with
  :class:`~repro.exceptions.ServiceOverloadedError` (HTTP 503, retryable).

Both are time-based on :func:`time.monotonic` and thread-safe; both keep
counters for the stats endpoint.
"""

from __future__ import annotations

import time
from typing import Callable

from ..exceptions import RateLimitedError, ServiceOverloadedError
from ..resilience.policy import seeded_jitter
from ..sanitize import ordered_lock

__all__ = ["LoadShedder", "RateLimiter", "TokenBucket"]

#: Fractional spread applied to retry_after hints: each refusal's hint is
#: scaled by a deterministic factor in [1, 1 + _JITTER), so clients refused
#: in the same instant don't all come back in the same instant.
_JITTER = 0.25


class TokenBucket:
    """One tenant's bucket: ``rate`` tokens/second, capacity ``burst``."""

    def __init__(
        self, rate: float, burst: float, clock: Callable[[], float] = time.monotonic
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be at least 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._updated = clock()

    def try_acquire(self, tokens: float = 1.0) -> float:
        """Take ``tokens`` if available; returns 0.0 on success, else the
        seconds until enough tokens will have accrued (the retry-after hint).

        Not synchronised — :class:`RateLimiter` serialises access.
        """
        now = self._clock()
        self._tokens = min(self.burst, self._tokens + (now - self._updated) * self.rate)
        self._updated = now
        if self._tokens >= tokens:
            self._tokens -= tokens
            return 0.0
        return (tokens - self._tokens) / self.rate


class RateLimiter:
    """Thread-safe map of tenant session name to its :class:`TokenBucket`."""

    def __init__(
        self,
        rate: float,
        burst: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        seed: int = 0,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, 2.0 * rate)
        self._clock = clock
        self._seed = int(seed)
        self._lock = ordered_lock("persistence.ratelimit", 24)
        self._buckets: dict[str, TokenBucket] = {}
        self._admitted = 0
        self._limited = 0

    def admit(self, session: str) -> None:
        """Admit one request for ``session`` or raise :class:`RateLimitedError`."""
        with self._lock:
            bucket = self._buckets.get(session)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, clock=self._clock)
                self._buckets[session] = bucket
            retry_after = bucket.try_acquire()
            if retry_after > 0.0:
                self._limited += 1
                # Deterministic per-refusal jitter: a burst of clients all
                # refused at once would otherwise share one retry_after and
                # stampede back together.  Keyed on (session, refusal count)
                # so a replay with the same seed reproduces the same hints.
                retry_after *= 1.0 + _JITTER * seeded_jitter(
                    self._seed, session, self._limited
                )
                raise RateLimitedError(
                    f"session {session!r} exceeded its rate limit of "
                    f"{self.rate:g} requests/s (burst {self.burst:g}); retry "
                    f"in {retry_after:.3f}s",
                    retry_after=retry_after,
                )
            self._admitted += 1

    def forget(self, session: str) -> None:
        """Drop a closed session's bucket."""
        with self._lock:
            self._buckets.pop(session, None)

    def stats(self) -> dict[str, float]:
        """Admission counters for the stats endpoint."""
        with self._lock:
            return {
                "rate": self.rate,
                "burst": self.burst,
                "admitted": self._admitted,
                "limited": self._limited,
                "sessions": len(self._buckets),
            }


class LoadShedder:
    """Global pending-work bound across every session of one service."""

    def __init__(self, max_total: int) -> None:
        if max_total < 1:
            raise ValueError("max_total must be a positive integer")
        self.max_total = max_total
        self._lock = ordered_lock("persistence.shedder", 26)
        self._pending = 0
        self._shed = 0

    def admit(self) -> None:
        """Count one pending request or shed it with
        :class:`ServiceOverloadedError`; pair with :meth:`release`."""
        with self._lock:
            if self._pending >= self.max_total:
                self._shed += 1
                raise ServiceOverloadedError(
                    f"service has {self._pending} pending measurements across "
                    f"all sessions (limit {self.max_total}); shedding load — "
                    f"retry with backoff"
                )
            self._pending += 1

    def release(self) -> None:
        """A previously admitted request finished (or failed)."""
        with self._lock:
            if self._pending > 0:
                self._pending -= 1

    def stats(self) -> dict[str, int]:
        """Pending/shed counters for the stats endpoint."""
        with self._lock:
            return {
                "pending": self._pending,
                "shed": self._shed,
                "max_total": self.max_total,
            }
