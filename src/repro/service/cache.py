"""Answer reuse: repeating a released measurement is budget-free.

Differential privacy composes over *information released*, not over requests
served: once a noisy answer has been published, handing the identical answer
out again reveals nothing new, so it costs no additional budget.  The service
exploits this standard trick with a cache keyed by ``(session, plan identity,
ε)`` — the triple that fully determines a measurement — which both saves
budget under repeated questions and makes the service idempotent under client
retries (a timed-out client that resends its request gets the bit-identical
answer without a second charge).

Plan *identity* is the right key because hosted queries are built exactly
once per session (see :mod:`repro.service.registry`) and live as long as the
session does, so every client naming the same query hits the same plan
object; plans hash by identity, so the key holds the plan itself and thereby
keeps it alive as long as the entry.  Scoping keys by session name means a
closed session's entries can be evicted (and a recreated same-name session
can never collide with them).

Two boundedness properties keep the cache an optimisation rather than a
liability:

* entries are evicted least-recently-used beyond ``max_entries``, so a tenant
  sweeping many distinct ε values cannot grow server memory without bound —
  an evicted answer is simply re-measured (a *fresh* release at fresh budget
  cost, which is always sound; only the free replay is lost);
* :meth:`drop_scope` removes a closed session's entries outright.

``max_entries`` counts *fresh releases*, so what it buys is time: a retry
replays for free only while fewer than ``max_entries`` newer releases have
been made.  ε is not renewable, so that window must not quietly shrink as
the server gets faster, and it must outlast the client's 60 s default
timeout, after which a client gives up and may retry.  The default of
131 072 is about 62 s of fresh releases at ≈ 2 100 per second — the rate
one process serves hosted queries at over keep-alive connections — just
over that timeout, and, at the ≈ 0.7 KB a small hosted answer retains,
about 90 MB when full.  A faster server shrinks the window below the
timeout: re-size it with the next serving gain.
The exact answers the sessions hold are *not* in this cache: they are never
released, only noised.

Only answers actually *released* may be reused: entries are inserted by the
service after the ledger accepted the charge, never speculatively.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.aggregation import NoisyCountResult
    from ..core.plan import Plan

__all__ = ["AnswerCache"]


class AnswerCache:
    """LRU map of ``(session, plan identity, ε)`` to released answers.

    Not synchronised: the service makes every call under ``service.state``.
    """

    def __init__(self, max_entries: int = 131072) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be a positive integer")
        self._answers: OrderedDict[
            tuple[str, "Plan", float], "NoisyCountResult"
        ] = OrderedDict()
        self._max_entries = max_entries
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def _key(self, scope: str, plan: "Plan", epsilon: float) -> tuple[str, "Plan", float]:
        return (scope, plan, float(epsilon))

    def get(
        self, scope: str, plan: "Plan", epsilon: float
    ) -> "NoisyCountResult | None":
        """The previously released answer for this measurement, if any."""
        key = self._key(scope, plan, epsilon)
        answer = self._answers.get(key)
        if answer is None:
            self._misses += 1
            return None
        self._answers.move_to_end(key)
        self._hits += 1
        return answer

    def put(
        self, scope: str, plan: "Plan", epsilon: float, answer: "NoisyCountResult"
    ) -> None:
        """Record a *released* answer for reuse.

        First release wins: if a concurrent writer already cached an answer
        for this key, the existing entry is kept so every client observes one
        consistent released value.  The least-recently-used entry is evicted
        beyond ``max_entries``.
        """
        key = self._key(scope, plan, epsilon)
        if key in self._answers:
            return
        self._answers[key] = answer
        while len(self._answers) > self._max_entries:
            self._answers.popitem(last=False)
            self._evictions += 1

    def drop_scope(self, scope: str) -> int:
        """Evict every entry of one session (called when it closes)."""
        stale = [key for key in self._answers if key[0] == scope]
        for key in stale:
            del self._answers[key]
        return len(stale)

    def __len__(self) -> int:
        return len(self._answers)

    def stats(self) -> dict[str, int]:
        """Hit/miss/size/eviction counters (stats endpoint and tests)."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "size": len(self._answers),
            "evictions": self._evictions,
            "max_entries": self._max_entries,
        }
