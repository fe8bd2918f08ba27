"""A :class:`~repro.core.budget.BudgetLedger` backed by the durable store.

``DurableLedger`` is a drop-in replacement for the in-memory ledger that a
:class:`~repro.core.queryable.PrivacySession` charges against.  Its budgets
live in the store's ``budgets`` table (:mod:`repro.persistence.wal`), which
gives two guarantees on top of the base class:

* **Durability** — a charge is the store's one write transaction, and it
  returns only once the debit is committed, so nothing is acknowledged that
  is not on disk.
* **Crash recovery** — :meth:`register` adopts the spend recovered from the
  store, so re-opening a ledger (or re-creating a hosted session after a
  restart) resumes from the exact committed pre-crash spend: no released ε is
  ever forgotten.

The affordability check of a charge runs inside that transaction against
the table, and :meth:`spent`, :meth:`remaining` and :meth:`report` read the
table.  A source's in-memory :class:`~repro.core.budget.PrivacyBudget`
keeps its total and this process's charge history.
"""

from __future__ import annotations

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

    @property
    def store(self) -> LedgerStore:
        """The durable store this ledger writes through."""
        return self._store

    @property
    def scope(self) -> str:
        """This ledger's namespace inside the store."""
        return self._scope

    # ------------------------------------------------------------------
    def register(self, name: str, total_epsilon: float) -> PrivacyBudget:
        """Register a source durably, adopting any recovered spend.

        The durable registration happens first (it also rejects a total that
        conflicts with a previous incarnation's), then the in-memory budget
        is created and synced to the recovered spent ε — which is non-zero
        exactly when this (scope, source) pair spent budget before a restart.
        """
        if total_epsilon != float("inf"):
            total_epsilon = validate_epsilon(total_epsilon)
        total, recovered_spent = self._store.register(
            self._scope, name, total_epsilon
        )
        budget = super().register(name, total)
        if recovered_spent > budget.spent:
            budget._sync_spent(recovered_spent)
            budget._record_charge(
                recovered_spent, "(recovered from durable ledger)"
            )
        return budget

    def charge(self, costs: dict[str, float], description: str = "") -> None:
        """Charge every source in the store's one transaction, or none.

        The store checks affordability against the table;
        :class:`BudgetExceededError` then propagates with nothing charged.
        On success each budget records the charge in its history.
        """
        validated = {name: validate_epsilon(cost) for name, cost in costs.items()}
        budgets = {name: self.budget_for(name) for name in validated}
        spent_after = self._store.charge(self._scope, validated, description)
        for name, cost in validated.items():
            budgets[name]._sync_spent(spent_after[name])
            budgets[name]._record_charge(cost, description)

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
