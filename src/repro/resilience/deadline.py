"""End-to-end request deadlines.

A :class:`Deadline` is an absolute point on the monotonic clock, carried from
the HTTP header (``X-Repro-Deadline-Ms``) through service admission,
executor evaluation, and pool task timeouts via a :mod:`contextvars` context
variable — a request's measure runs on the thread that submitted it, and
``session.measure`` evaluates on that same thread, so the scope set around
the measure call is visible everywhere below it.

Budget-safety contract: deadlines are only *enforced* before the atomic
budget charge (service admission, shedding when the request gets its
session's lock, and the pre-charge check in ``PrivacySession.measure``).  A
request whose deadline passes while it waits behind a running measure is
refused, uncharged, when that measure ends.  Once a charge commits,
evaluation runs to completion and the answer is cached and durably
released, so a client whose deadline expired mid-flight retries for free —
the answer cache serves it without a second charge.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar

from ..exceptions import DeadlineExceededError

__all__ = [
    "Deadline",
    "current_deadline",
    "deadline_scope",
    "check_deadline",
]


class Deadline:
    """An absolute expiry on the monotonic clock."""

    __slots__ = ("expires_at",)

    def __init__(self, expires_at):
        self.expires_at = float(expires_at)

    @classmethod
    def after(cls, seconds, clock=time.monotonic):
        """Deadline ``seconds`` from now.  Non-positive means already expired."""
        return cls(clock() + float(seconds))

    def remaining(self, clock=time.monotonic):
        """Seconds until expiry; never negative."""
        return max(0.0, self.expires_at - clock())

    def expired(self, clock=time.monotonic):
        return clock() >= self.expires_at

    def check(self, where, clock=time.monotonic):
        """Raise :class:`DeadlineExceededError` if expired."""
        if self.expired(clock):
            raise DeadlineExceededError(f"deadline exceeded at {where}")

    def __repr__(self):
        return f"Deadline(remaining={self.remaining():.3f}s)"


_current: ContextVar[Deadline | None] = ContextVar("repro_deadline", default=None)


def current_deadline():
    """The deadline governing the current context, or ``None``."""
    return _current.get()


@contextmanager
def deadline_scope(deadline):
    """Bind ``deadline`` (possibly ``None``) for the duration of the block."""
    token = _current.set(deadline)
    try:
        yield deadline
    finally:
        _current.reset(token)


def check_deadline(where):
    """Raise if the context deadline (if any) has expired.  Free when unset."""
    deadline = _current.get()
    if deadline is not None:
        deadline.check(where)
