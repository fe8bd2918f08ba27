"""Retry and circuit-breaking policies.

Everything here is deterministic under a seed.  Jitter comes from a
``blake2b`` hash of ``(seed, key, attempt)`` rather than a shared RNG, so two
clients retrying the same failure desynchronise (thundering-herd fix) while a
replay with the same seed reproduces the exact sleep schedule —
``PYTHONHASHSEED``-independent, thread-interleaving-independent.

:class:`CircuitBreaker` is the fail-fast complement to retrying — after
``threshold`` consecutive failures it refuses work outright for
``reset_after`` seconds, then lets a single half-open probe through.
"""

from __future__ import annotations

import hashlib
import time

from ..exceptions import CircuitOpenError
from ..sanitize import ordered_lock

__all__ = [
    "seeded_jitter",
    "RetryPolicy",
    "CircuitBreaker",
]


def seeded_jitter(seed, *key):
    """Deterministic uniform in [0, 1) keyed on ``(seed, *key)``."""
    material = ":".join(str(part) for part in (seed, *key))
    digest = hashlib.blake2b(material.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / float(1 << 64)


def _default_retryable(exc):
    return bool(getattr(exc, "retryable", False))


class RetryPolicy:
    """Capped exponential backoff with deterministic seeded jitter.

    ``call(fn)`` runs ``fn`` up to ``1 + retries`` times.  A failure is
    retried only if ``retryable(exc)`` holds (default: the exception's own
    ``retryable`` flag) and the context deadline (if any) leaves room for the
    backoff sleep.
    Sleep before attempt ``n`` (1-based retry index) is::

        min(max_delay, base_delay * multiplier**(n-1)) * (1 - jitter/2 + jitter*u)

    with ``u = seeded_jitter(seed, key, n)``.
    """

    def __init__(
        self,
        retries=3,
        base_delay=0.05,
        max_delay=2.0,
        multiplier=2.0,
        jitter=0.5,
        seed=0,
        sleep=time.sleep,
    ):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.retries = int(retries)
        self.base_delay = float(base_delay)
        self.max_delay = float(max_delay)
        self.multiplier = float(multiplier)
        self.jitter = float(jitter)
        self.seed = int(seed)
        self._sleep = sleep

    def backoff(self, attempt, key=""):
        """Backoff (seconds) before retry ``attempt`` (1-based)."""
        delay = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter > 0.0:
            u = seeded_jitter(self.seed, key, attempt)
            delay *= 1.0 - self.jitter / 2.0 + self.jitter * u
        return delay

    def call(self, fn, retryable=None, key="", on_retry=None):
        from .deadline import current_deadline

        is_retryable = _default_retryable if retryable is None else retryable
        attempt = 0
        while True:
            try:
                return fn()
            except Exception as exc:
                attempt += 1
                if attempt > self.retries or not is_retryable(exc):
                    raise
                delay = self.backoff(attempt, key=key)
                deadline = current_deadline()
                if deadline is not None and deadline.remaining() <= delay:
                    raise
                if on_retry is not None:
                    on_retry(exc, attempt, delay)
                if delay > 0.0:
                    self._sleep(delay)


class CircuitBreaker:
    """Three-state (closed / open / half-open) failure breaker.

    ``threshold`` consecutive failures open the circuit for ``reset_after``
    seconds; while open, :meth:`allow` is ``False`` and :meth:`check` raises
    :class:`CircuitOpenError` with the remaining window as ``retry_after``.
    After the window one probe is admitted (half-open); its success closes
    the circuit, its failure re-opens the full window.
    """

    def __init__(self, threshold=5, reset_after=5.0, clock=time.monotonic, name=""):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = int(threshold)
        self.reset_after = float(reset_after)
        self.name = name
        self._clock = clock
        self._lock = ordered_lock("resilience.breaker", 20)
        self._failures = 0
        self._opened_at = None
        self._probing = False
        self._opened_total = 0

    @property
    def state(self):
        with self._lock:
            return self._state_locked()

    def _state_locked(self):
        if self._opened_at is None:
            return "closed"
        if self._probing:
            return "half-open"
        if self._clock() - self._opened_at >= self.reset_after:
            return "half-open"
        return "open"

    def allow(self):
        """Whether a request may proceed.  Claims the half-open probe slot."""
        with self._lock:
            state = self._state_locked()
            if state == "closed":
                return True
            if state == "half-open" and not self._probing:
                self._probing = True
                return True
            return False

    def retry_after(self):
        with self._lock:
            if self._opened_at is None:
                return 0.0
            return max(0.0, self.reset_after - (self._clock() - self._opened_at))

    def check(self):
        """Like :meth:`allow` but raises :class:`CircuitOpenError` on refusal."""
        if not self.allow():
            label = f" ({self.name})" if self.name else ""
            raise CircuitOpenError(
                f"circuit breaker open{label}", retry_after=self.retry_after()
            )

    def record_success(self):
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self):
        """Record a dependency failure; returns True if this call opened it."""
        with self._lock:
            was_open = self._opened_at is not None
            self._failures += 1
            self._probing = False
            if was_open:
                # Failed half-open probe: restart the full open window.
                self._opened_at = self._clock()
                return False
            if self._failures >= self.threshold:
                self._opened_at = self._clock()
                self._opened_total += 1
                return True
            return False

    def stats(self):
        with self._lock:
            return {
                "name": self.name,
                "state": self._state_locked(),
                "failures": self._failures,
                "opened_total": self._opened_total,
                "retry_after": 0.0
                if self._opened_at is None
                else max(
                    0.0, self.reset_after - (self._clock() - self._opened_at)
                ),
            }
