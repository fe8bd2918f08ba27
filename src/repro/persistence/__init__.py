"""Durable persistence for the measurement service's privacy state.

In wPINQ the budget ledger *is* the privacy guarantee: every released
measurement is sound only if cumulative ε spend is tracked for the lifetime
of the protected data.  This package makes that tracking survive process
death, and provides the admission controls a durable service needs:

:mod:`repro.persistence.wal`
    :class:`LedgerStore` — a WAL-mode sqlite file holding the budgets table
    (a fresh release's charge, release row and audit row are one write
    transaction), the append-only audit log, released answers, and
    hosted-session definitions.  A store holds its file
    exclusively: a second opener is refused.
:mod:`repro.persistence.ledger`
    :class:`DurableLedger` — the drop-in
    :class:`~repro.core.budget.BudgetLedger` that charges through the store
    and reads every spend from the durable table.
:mod:`repro.persistence.ratelimit`
    Per-tenant :class:`TokenBucket`/:class:`RateLimiter` admission control,
    layered under the scheduler's backpressure.
"""

from .ledger import DurableLedger
from .ratelimit import RateLimiter, TokenBucket
from .wal import LedgerStore

__all__ = [
    "DurableLedger",
    "LedgerStore",
    "RateLimiter",
    "TokenBucket",
]
