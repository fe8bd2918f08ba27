"""Per-tenant token-bucket rate limiting.

Backpressure (the bounded per-session waiters and the global pending bound
of :mod:`repro.service.scheduler`) protects the server once work has been
admitted; the token bucket decides what gets admitted at all:
:class:`TokenBucket` / :class:`RateLimiter` cap one tenant session's
sustained request rate at ``rate`` per second with bursts up to ``burst``,
so one chatty tenant cannot starve the server that every tenant shares.
Refusals raise :class:`~repro.exceptions.RateLimitedError` (HTTP 429)
carrying a ``retry_after`` hint — the time until the bucket holds a token
again.  Time is :func:`time.monotonic`; counters feed the stats endpoint.
"""

from __future__ import annotations

import time
from typing import Callable

from ..exceptions import RateLimitedError
from ..resilience.policy import seeded_jitter

__all__ = ["RateLimiter", "TokenBucket"]

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

        Not synchronised: every call is made under the lock that serialises
        its :class:`RateLimiter`.
        """
        now = self._clock()
        self._tokens = min(self.burst, self._tokens + (now - self._updated) * self.rate)
        self._updated = now
        if self._tokens >= tokens:
            self._tokens -= tokens
            return 0.0
        return (tokens - self._tokens) / self.rate


class RateLimiter:
    """Map of tenant session name to its :class:`TokenBucket`.

    Not synchronised: the scheduler makes every call under ``service.state``.
    """

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
        self._buckets: dict[str, TokenBucket] = {}
        self._admitted = 0
        self._limited = 0

    def admit(self, session: str) -> None:
        """Admit one request for ``session`` or raise :class:`RateLimitedError`."""
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
        self._buckets.pop(session, None)

    def stats(self) -> dict[str, float]:
        """Admission counters for the stats endpoint."""
        return {
            "rate": self.rate,
            "burst": self.burst,
            "admitted": self._admitted,
            "limited": self._limited,
            "sessions": len(self._buckets),
        }
