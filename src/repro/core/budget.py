"""Privacy budget accounting.

Differential privacy for weighted datasets composes sequentially: a sequence
of computations, each ``ε_i``-DP, is ``Σ_i ε_i``-DP (Section 2.1).  wPINQ uses
this to track the cumulative privacy cost of an analysis session and refuses
any measurement that would push a protected dataset past its budget.

A subtlety from Section 2.3: when a protected dataset appears ``k`` times in a
query plan (e.g. both sides of a self-join), an ``ε``-DP aggregation of the
plan's output is ``k·ε``-DP *for that dataset*.  The plan machinery derives
that ``k`` statically (the plan's stability bound, see
:func:`repro.core.plan.stability_bounds`) and the ledger here charges the
multiple.

Thread safety
-------------
The ledger is the one component of the platform that must never be wrong, and
it is exercised from multiple threads (parallel MCMC chains, the concurrent
measurement service of :mod:`repro.service`).  Every check-then-act sequence
is therefore atomic under one lock:

* a :class:`BudgetLedger` has one re-entrant lock, and every budget it
  creates shares it.  :meth:`BudgetLedger.charge` holds it across the
  affordability checks of every involved source and the debits, so a
  multi-source charge is all-or-nothing even against concurrent direct
  :meth:`PrivacyBudget.charge` calls on the same budgets;
* :meth:`PrivacyBudget.charge` holds the same lock across its own check and
  debit, so concurrent charges can never jointly overspend ``total`` — one
  of two racing charges that together exceed the remaining budget is
  guaranteed to raise :class:`BudgetExceededError`.  A standalone budget,
  made outside any ledger, has a lock of its own.

All read accessors (``spent``, ``remaining``, ``history``, ``report``) take a
consistent snapshot under that lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

from ..exceptions import BudgetExceededError, InvalidEpsilonError
from ..sanitize import ordered_rlock
from .laplace import validate_epsilon

__all__ = ["BudgetLedger", "PrivacyBudget"]


@dataclass(slots=True)
class _Charge:
    """One recorded budget expenditure (kept for auditing/reporting)."""

    epsilon: float
    description: str


def _ledger_lock():
    """A standalone budget's own instance of the ``core.ledger`` lock.

    A :class:`BudgetLedger` hands every budget it creates its own lock
    instead.
    """
    return ordered_rlock("core.ledger", 50)


@dataclass
class PrivacyBudget:
    """Tracks the privacy budget of a single protected dataset.

    Parameters
    ----------
    total:
        The total ``ε`` the data owner is willing to spend on this dataset.
        ``float('inf')`` disables enforcement (useful for unit tests and for
        the *synthetic* datasets MCMC manipulates, which are public).

    Instances are thread-safe: :meth:`charge` performs its affordability check
    and debit atomically under a re-entrant lock — its ledger's, when a
    :class:`BudgetLedger` created it — so no interleaving of concurrent
    charges can spend more than ``total``.
    """

    total: float
    _spent: float = field(default=0.0, init=False)
    _charges: list[_Charge] = field(default_factory=list, init=False)
    _lock: threading.RLock = field(
        default_factory=_ledger_lock, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.total != float("inf"):
            self.total = validate_epsilon(self.total)

    @property
    def spent(self) -> float:
        """Total ε consumed so far."""
        with self._lock:
            return self._spent

    @property
    def remaining(self) -> float:
        """ε still available for future measurements."""
        with self._lock:
            return self.total - self._spent

    def can_afford(self, epsilon: float) -> bool:
        """True if a charge of ``epsilon`` would stay within budget.

        Note that under concurrency the answer may be stale by the time the
        caller acts on it; :meth:`charge` re-checks under the lock, so use it
        (and catch :class:`BudgetExceededError`) rather than check-then-act.
        """
        epsilon = validate_epsilon(epsilon)
        # A tiny slack absorbs floating-point accumulation across many charges.
        return epsilon <= self.remaining + 1e-12

    def charge(self, epsilon: float, description: str = "") -> None:
        """Consume ``epsilon`` of budget, or raise without consuming anything.

        Check and debit happen atomically under the budget's lock.
        """
        epsilon = validate_epsilon(epsilon)
        with self._lock:
            if not self.can_afford(epsilon):
                raise BudgetExceededError(epsilon, self.remaining)
            self._spent += epsilon
            self._charges.append(_Charge(epsilon, description))

    def history(self) -> list[tuple[float, str]]:
        """Return the list of ``(epsilon, description)`` charges so far."""
        with self._lock:
            return [(charge.epsilon, charge.description) for charge in self._charges]


class BudgetLedger:
    """Budget bookkeeping for several protected datasets at once.

    A single wPINQ query may reference multiple protected sources (e.g. a join
    of two private tables); a measurement must be affordable for *all* of them
    simultaneously, and is charged atomically — either every source is charged
    or none is.

    The ledger is thread-safe: it has one re-entrant lock, shared by every
    budget it creates.  Registration is serialised under it, and
    :meth:`charge` holds it across its check phase and its charge phase, so
    concurrent multi-source charges — and concurrent direct
    :meth:`PrivacyBudget.charge` calls — can never interleave into an
    overspend.
    """

    def __init__(self) -> None:
        self._budgets: dict[str, PrivacyBudget] = {}
        self._lock = ordered_rlock("core.ledger", 50)

    def register(self, name: str, total_epsilon: float) -> PrivacyBudget:
        """Create (or idempotently fetch) the budget for a protected source.

        Re-registering an existing source with the *same* total is a no-op
        returning the existing budget; a *different* total raises
        :class:`InvalidEpsilonError` — silently keeping the first total would
        let a caller believe a larger (or smaller) budget is in force than
        the one actually enforced.
        """
        if total_epsilon != float("inf"):
            total_epsilon = validate_epsilon(total_epsilon)
        with self._lock:
            existing = self._budgets.get(name)
            if existing is not None:
                if existing.total != total_epsilon:
                    raise InvalidEpsilonError(
                        f"source {name!r} is already registered with total "
                        f"epsilon {existing.total:g}, refusing conflicting "
                        f"re-registration at {total_epsilon:g}"
                    )
                return existing
            budget = PrivacyBudget(total_epsilon)
            budget._lock = self._lock
            self._budgets[name] = budget
            return budget

    def budget_for(self, name: str) -> PrivacyBudget:
        """Return the budget registered under ``name``."""
        with self._lock:
            try:
                return self._budgets[name]
            except KeyError as exc:
                raise InvalidEpsilonError(
                    f"no budget registered for source {name!r}"
                ) from exc

    def charge(self, costs: dict[str, float], description: str = "") -> None:
        """Atomically charge each source its cost, or raise and charge nothing.

        The two-phase check-then-charge runs under the ledger's lock, which
        every one of its budgets shares, so no concurrent charge can slip
        between the affordability checks and the debits.
        """
        validated = {name: validate_epsilon(cost) for name, cost in costs.items()}
        with self._lock:
            budgets = {name: self.budget_for(name) for name in validated}
            for name, cost in validated.items():
                budget = budgets[name]
                if not budget.can_afford(cost):
                    raise BudgetExceededError(cost, budget.remaining, source=name)
            for name, cost in validated.items():
                budgets[name].charge(cost, description)

    def after_commit(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the charges so far are final: here, at once."""
        callback()

    def spent(self, name: str) -> float:
        """ε consumed so far by the named source."""
        return self.budget_for(name).spent

    def remaining(self, name: str) -> float:
        """ε still available for the named source."""
        return self.budget_for(name).remaining

    def report(self) -> dict[str, dict[str, float]]:
        """Summary of every registered source (total / spent / remaining).

        Read under the ledger's lock, so the snapshot is consistent: a
        concurrent multi-source charge is either fully visible or not at all.
        """
        with self._lock:
            return {
                name: {
                    "total": budget.total,
                    "spent": budget.spent,
                    "remaining": budget.remaining,
                }
                for name, budget in self._budgets.items()
            }
