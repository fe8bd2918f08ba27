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
measurement service of :mod:`repro.service`).  Both classes therefore make
every check-then-act sequence atomic:

* :meth:`PrivacyBudget.charge` holds the budget's re-entrant lock across the
  affordability check and the debit, so concurrent charges can never jointly
  overspend ``total`` — one of two racing charges that together exceed the
  remaining budget is guaranteed to raise :class:`BudgetExceededError`.
* :meth:`BudgetLedger.charge` acquires the locks of *every* involved budget
  (in sorted name order, so two multi-source charges can never deadlock)
  before running its two-phase check-then-charge, making the multi-source
  transaction atomic even against concurrent direct
  :meth:`PrivacyBudget.charge` calls on the same budgets.

All read accessors (``spent``, ``remaining``, ``history``, ``report``) take a
consistent snapshot under the same locks.
"""

from __future__ import annotations

import threading
from contextlib import ExitStack
from dataclasses import dataclass, field

from ..exceptions import BudgetExceededError, InvalidEpsilonError
from ..sanitize import ordered_rlock
from .laplace import validate_epsilon

__all__ = ["BudgetLedger", "PrivacyBudget"]


@dataclass(slots=True)
class _Charge:
    """One recorded budget expenditure (kept for auditing/reporting)."""

    epsilon: float
    description: str


def _budget_lock():
    """Per-scope budget lock; every PrivacyBudget instance is a peer.

    Sibling budgets are acquired together at one level by the sorted
    ``ExitStack`` discipline of :meth:`BudgetLedger.charge` (``peers``
    licenses the same-level stack; R008 flags a peer acquired in a loop
    that does not iterate ``sorted(...)``).
    """
    return ordered_rlock("core.budget", 60, peers=True)


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
    and debit atomically under a re-entrant lock, so no interleaving of
    concurrent charges can spend more than ``total``.
    """

    total: float
    _spent: float = field(default=0.0, init=False)
    _charges: list[_Charge] = field(default_factory=list, init=False)
    _lock: threading.RLock = field(
        default_factory=_budget_lock, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.total != float("inf"):
            self.total = validate_epsilon(self.total)

    @property
    def lock(self) -> threading.RLock:
        """The re-entrant lock guarding this budget's state.

        Exposed so :class:`BudgetLedger` can hold it across a multi-source
        two-phase charge; it is re-entrant, so holding it while calling
        :meth:`charge` is safe.
        """
        return self._lock

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

    # ------------------------------------------------------------------
    # Hooks for the durable ledger (repro.persistence.ledger)
    # ------------------------------------------------------------------
    def _sync_spent(self, spent: float) -> None:
        """Adopt an authoritative externally-committed spent total.

        Used by :class:`~repro.persistence.ledger.DurableLedger` to make the
        in-memory view track the durable store — which may include charges
        committed by other worker processes, or spend recovered from a
        previous incarnation.  Not part of the public API: callers must have
        durably committed the spend they are syncing to.  Durable spend only
        grows, so a total older than the one already adopted (two threads'
        charges returning out of order) is ignored.
        """
        with self._lock:
            self._spent = max(self._spent, float(spent))

    def _record_charge(self, epsilon: float, description: str) -> None:
        """Append a history entry without debiting (the debit came via
        :meth:`_sync_spent` from the durable store)."""
        with self._lock:
            self._charges.append(_Charge(epsilon, description))


class BudgetLedger:
    """Budget bookkeeping for several protected datasets at once.

    A single wPINQ query may reference multiple protected sources (e.g. a join
    of two private tables); a measurement must be affordable for *all* of them
    simultaneously, and is charged atomically — either every source is charged
    or none is.

    The ledger is thread-safe: registration is serialised, and
    :meth:`charge` holds every involved budget's lock (in sorted name order)
    across its check phase and its charge phase, so concurrent multi-source
    charges — and concurrent direct :meth:`PrivacyBudget.charge` calls — can
    never interleave into an overspend.
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

        The two-phase check-then-charge runs with every involved budget's
        lock held (acquired in sorted name order to rule out deadlock), so no
        concurrent charge can slip between the affordability checks and the
        debits.
        """
        validated = {name: validate_epsilon(cost) for name, cost in costs.items()}
        budgets = {name: self.budget_for(name) for name in validated}
        with ExitStack() as stack:
            for name in sorted(budgets):
                stack.enter_context(budgets[name].lock)
            for name, cost in validated.items():
                budget = budgets[name]
                if not budget.can_afford(cost):
                    raise BudgetExceededError(cost, budget.remaining, source=name)
            for name, cost in validated.items():
                budgets[name].charge(cost, description)

    def spent(self, name: str) -> float:
        """ε consumed so far by the named source."""
        return self.budget_for(name).spent

    def remaining(self, name: str) -> float:
        """ε still available for the named source."""
        return self.budget_for(name).remaining

    def report(self) -> dict[str, dict[str, float]]:
        """Summary of every registered source (total / spent / remaining).

        Every budget's lock is held for the read (sorted order, matching
        :meth:`charge`), so the snapshot is consistent: a concurrent
        multi-source charge is either fully visible or not at all.
        """
        with self._lock:
            budgets = dict(self._budgets)
        report: dict[str, dict[str, float]] = {}
        with ExitStack() as stack:
            for name in sorted(budgets):
                stack.enter_context(budgets[name].lock)
            for name, budget in budgets.items():
                report[name] = {
                    "total": budget.total,
                    "spent": budget.spent,
                    "remaining": budget.remaining,
                }
        return report
