"""Runtime lock-order sanitizer (``REPRO_SANITIZE=1``).

The repository declares a total lock hierarchy: every lock is created
through :func:`ordered_lock` / :func:`ordered_rlock` with a unique name and
an integer *level*.  That factory call is the declaration
:mod:`repro.lint.concurrency` reads to verify the hierarchy statically.
This module is the *empirical* half of that contract: with
``REPRO_SANITIZE=1`` in the environment (or after :func:`enable`), every
lock the factories hand out is wrapped so each acquisition is checked
against a thread-local stack of currently-held locks:

* acquiring a lock whose level is **greater** than every held level is fine
  (that is the hierarchy working);
* re-acquiring a lock already held by this thread is fine when the lock is
  **reentrant** (an ``RLock`` by construction);
* anything else raises :class:`LockOrderViolation` immediately, naming the
  offending acquisition and the held stack — so a divergence between the
  declared static hierarchy and actual runtime behaviour fails the test
  suite (and the chaos harness) loudly instead of deadlocking rarely.

When the sanitizer is disabled (the default) the factories return plain
``threading`` primitives: zero overhead, no behavioural difference.

The level registry is process-global and first-declaration-wins: declaring
the same name twice with a different level is a programming error and
raises ``ValueError`` eagerly.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

__all__ = [
    "LockOrderViolation",
    "LockSpec",
    "declared_locks",
    "disable",
    "enable",
    "held_locks",
    "is_enabled",
    "ordered_lock",
    "ordered_rlock",
    "reset_registry",
]


class LockOrderViolation(RuntimeError):
    """A runtime lock acquisition contradicted the declared lock hierarchy."""


@dataclass(frozen=True)
class LockSpec:
    """The declared identity of one lock in the hierarchy.

    ``name`` is the hierarchy key (e.g. ``"core.ledger"``), shared by every
    instance of the lock (each ``BudgetLedger`` has its own instance of the
    ``core.ledger`` lock).  ``io_ok`` is consumed by the *static* analyzer
    only (it licenses blocking calls under the lock, rule R009); it has no
    runtime effect.
    """

    name: str
    level: int
    reentrant: bool = False
    io_ok: bool = False


#: Process-global registry of declared lock specs, keyed by name.
_REGISTRY: dict[str, LockSpec] = {}
_REGISTRY_LOCK = threading.Lock()  # lock-order: 95 sanitize.registry # leaf: guards only the spec dict

_FORCED: bool | None = None  #: programmatic override of the env switch

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def is_enabled() -> bool:
    """Whether locks created *now* will be sanitized."""
    if _FORCED is not None:
        return _FORCED
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in _TRUTHY


def enable() -> None:
    """Force the sanitizer on for locks created after this call (tests)."""
    global _FORCED
    _FORCED = True


def disable() -> None:
    """Undo :func:`enable`; the environment variable decides again."""
    global _FORCED
    _FORCED = None


def reset_registry() -> None:
    """Forget every declared spec (testing hook; never used in production)."""
    with _REGISTRY_LOCK:
        _REGISTRY.clear()


def declared_locks() -> dict[str, LockSpec]:
    """A snapshot of every lock spec declared so far in this process."""
    with _REGISTRY_LOCK:
        return dict(_REGISTRY)


def _declare(spec: LockSpec) -> LockSpec:
    with _REGISTRY_LOCK:
        existing = _REGISTRY.get(spec.name)
        if existing is None:
            _REGISTRY[spec.name] = spec
            return spec
        if existing != spec:
            raise ValueError(
                f"lock {spec.name!r} is already declared as {existing}, "
                f"refusing conflicting re-declaration as {spec}"
            )
        return existing


# ---------------------------------------------------------------------------
# The thread-local held-lock stack
# ---------------------------------------------------------------------------
class _Held:
    """One held-lock entry: which spec, which instance."""

    __slots__ = ("spec", "lock")

    def __init__(self, spec: LockSpec, lock: "_SanitizedLock") -> None:
        self.spec = spec
        self.lock = lock


_local = threading.local()


def _stack() -> list[_Held]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


def held_locks() -> list[tuple[str, int]]:
    """The current thread's held sanitized locks as ``(name, level)`` pairs."""
    return [(entry.spec.name, entry.spec.level) for entry in _stack()]


class _SanitizedLock:
    """A lock wrapper that checks every acquisition against the hierarchy.

    Mirrors the ``threading.Lock``/``RLock`` interface the codebase uses
    (``acquire``/``release``/context manager/``locked`` when available).
    """

    __slots__ = ("spec", "_inner")

    def __init__(self, spec: LockSpec, inner) -> None:
        self.spec = spec
        self._inner = inner

    # -- ordering check -------------------------------------------------
    def _check(self) -> None:
        stack = _stack()
        if not stack:
            return
        if self.spec.reentrant and any(entry.lock is self for entry in stack):
            return  # re-entrant re-acquisition of a lock this thread holds
        ceiling = max(entry.spec.level for entry in stack)
        if self.spec.level > ceiling:
            return
        held = " -> ".join(
            f"{entry.spec.name}@{entry.spec.level}" for entry in stack
        )
        raise LockOrderViolation(
            f"thread {threading.current_thread().name!r} acquired lock "
            f"{self.spec.name!r} (level {self.spec.level}) while holding "
            f"[{held}]; the declared hierarchy requires strictly increasing "
            f"levels (see README 'Concurrency model & lock order')"
        )

    # -- lock interface --------------------------------------------------
    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._check()
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            _stack().append(_Held(self.spec, self))
        return acquired

    def release(self) -> None:
        stack = _stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index].lock is self:
                del stack[index]
                break
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    def locked(self) -> bool:
        inner_locked = getattr(self._inner, "locked", None)
        if inner_locked is None:  # RLock has no locked() before 3.12
            return any(entry.lock is self for entry in _stack())
        return inner_locked()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<sanitized {self.spec.name}@{self.spec.level} {self._inner!r}>"


# ---------------------------------------------------------------------------
# The factories every repository lock is created through
# ---------------------------------------------------------------------------
def ordered_lock(name: str, level: int, *, io_ok: bool = False):
    """A ``threading.Lock`` declared at ``level`` in the lock hierarchy.

    With the sanitizer disabled this *is* a plain ``threading.Lock``.  The
    name, level and flags must be literals: :mod:`repro.lint.concurrency`
    reads the hierarchy off this call.
    """
    spec = _declare(LockSpec(name=name, level=int(level), io_ok=io_ok))
    if not is_enabled():
        return threading.Lock()
    return _SanitizedLock(spec, threading.Lock())


def ordered_rlock(name: str, level: int, *, io_ok: bool = False):
    """A re-entrant lock declared at ``level`` in the lock hierarchy."""
    spec = _declare(LockSpec(name=name, level=int(level), reentrant=True, io_ok=io_ok))
    if not is_enabled():
        return threading.RLock()
    return _SanitizedLock(spec, threading.RLock())
