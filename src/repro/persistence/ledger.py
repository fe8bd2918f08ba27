"""A :class:`~repro.core.budget.BudgetLedger` backed by the durable store.

``DurableLedger`` is a drop-in replacement for the in-memory ledger that a
:class:`~repro.core.queryable.PrivacySession` charges against.  Its budgets
live in the store's ``budgets`` table (:mod:`repro.persistence.wal`) and
nowhere else, which gives two guarantees on top of the base class:

* **Durability** — a charge is a store write, in its own transaction or in
  the caller's (:meth:`~repro.persistence.wal.LedgerStore.transaction`), so
  nothing is acknowledged before the debit is committed.
* **Crash recovery** — every read of spend reads the store, so re-opening
  a ledger (or re-creating a hosted session after a restart) resumes from
  the exact committed pre-crash spend: no released ε is ever forgotten.

A charge's affordability check runs against the table, and :meth:`spent`,
:meth:`remaining` and :meth:`report` read it.  A source's in-memory
:class:`~repro.core.budget.PrivacyBudget` holds only its total.
"""

from __future__ import annotations

from typing import Callable

from ..core.budget import BudgetLedger, PrivacyBudget
from ..core.laplace import validate_epsilon
from .wal import LedgerStore

__all__ = ["DurableLedger"]


class DurableLedger(BudgetLedger):
    """Budget ledger whose source of truth is a :class:`LedgerStore`.

    Parameters
    ----------
    store:
        The durable store (one sqlite file).
    scope:
        The namespace of this ledger's budgets inside the store — the hosted
        session name in the measurement service, so distinct tenants' budgets
        never collide even when their protected sources share a name.
    """

    def __init__(self, store: LedgerStore, scope: str) -> None:
        super().__init__()
        self._store = store
        self._scope = scope

    # ------------------------------------------------------------------
    def register(self, name: str, total_epsilon: float) -> PrivacyBudget:
        """Register a source durably (refusing a total that conflicts with a
        previous incarnation's, whose spend stays in the table), then in
        memory."""
        if total_epsilon != float("inf"):
            total_epsilon = validate_epsilon(total_epsilon)
        total, _ = self._store.register(self._scope, name, total_epsilon)
        return super().register(name, total)

    def charge(self, costs: dict[str, float], description: str = "") -> None:
        """Charge every source in the store, all or none, taking no lock of
        this ledger; :class:`BudgetExceededError` (:class:`InvalidEpsilonError`
        for a source never registered) propagates with nothing charged.  The
        audit log, not ``description``, records the charge."""
        self._store.charge(
            self._scope, {name: validate_epsilon(cost) for name, cost in costs.items()}
        )

    def after_commit(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the store's open transaction commits."""
        self._store.after_commit(callback)

    def spent(self, name: str) -> float:
        """Durable ε consumed so far by the named source."""
        self.budget_for(name)
        return self._store.spent(self._scope)[name]

    def remaining(self, name: str) -> float:
        """Durable ε still available for the named source."""
        return self.budget_for(name).total - self.spent(name)

    def report(self) -> dict[str, dict[str, float]]:
        """Summary of every registered source, read from the table."""
        with self._lock:
            totals = {name: budget.total for name, budget in self._budgets.items()}
        durable = self._store.spent(self._scope)
        return {
            name: {
                "total": total,
                "spent": durable[name],
                "remaining": total - durable[name],
            }
            for name, total in totals.items()
        }
