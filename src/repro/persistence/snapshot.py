"""Ledger state snapshots and write-ahead-log replay.

Recovery is the composition of two artifacts kept in the same sqlite file
(:mod:`repro.persistence.wal`):

* a **snapshot**: the full budget state (per ``(scope, source)`` totals and
  committed spends) as of some prefix of the write-ahead log, folded into one
  JSON row when the log is compacted; and
* the **write-ahead log tail**: every budget record appended after the
  snapshot was taken — ``register`` rows plus ``intent``/``commit``/``abort``
  rows grouped into charge transactions.

:func:`replay` rebuilds the exact pre-crash ledger state from the pair.  The
soundness-critical rule is how unfinished transactions are treated: an
``intent`` whose transaction has a ``commit`` row is counted as spent; an
intent with an ``abort`` row, or with *no* resolution row at all (the process
died between appending its intents and appending the commit record), is
dropped.  Dropping unresolved intents is exact, not merely safe, because the
durable ledger only acknowledges a charge — and the service only releases the
corresponding noisy answer — strictly *after* the commit record is on disk:
an unresolved intent can never correspond to released information.

Compaction (:meth:`repro.persistence.wal.LedgerStore.snapshot`) folds exactly
the *resolved* prefix of the log into a new snapshot row and deletes the
folded rows, so ``replay(snapshot, remaining rows)`` is an invariant of
compaction: unresolved intents survive in the log until their commit or abort
arrives (possibly from another worker process), no matter how many snapshots
are taken in between.

A store resumes its own fold rather than starting over
(:meth:`repro.persistence.wal.LedgerStore.load_state`): the state it last
folded and the intents still open in it go back into :func:`replay` in front
of the rows appended since.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

__all__ = ["BudgetState", "LedgerState", "replay", "state_from_json", "state_to_json"]


@dataclass
class BudgetState:
    """Recovered durable state of one ``(scope, source)`` budget."""

    total: float
    spent: float = 0.0


@dataclass
class LedgerState:
    """Recovered durable state of every budget scope in the store.

    ``budgets`` maps scope (the hosted session name) to a mapping of source
    name to :class:`BudgetState`.
    """

    budgets: dict[str, dict[str, BudgetState]] = field(default_factory=dict)

    def budget(self, scope: str, source: str) -> BudgetState | None:
        """The recovered budget for ``(scope, source)``, if registered."""
        return self.budgets.get(scope, {}).get(source)

    def copy(self) -> "LedgerState":
        """An independent copy (no :class:`BudgetState` is shared)."""
        return LedgerState(
            budgets={
                scope: {source: BudgetState(b.total, b.spent) for source, b in sources.items()}
                for scope, sources in self.budgets.items()
            }
        )

    def ensure(self, scope: str, source: str, total: float) -> BudgetState:
        """Fetch-or-create the budget for ``(scope, source)``."""
        sources = self.budgets.setdefault(scope, {})
        budget = sources.get(source)
        if budget is None:
            budget = BudgetState(total=total)
            sources[source] = budget
        return budget

    def report(self) -> dict[str, dict[str, dict[str, float]]]:
        """JSON-friendly summary (scope -> source -> total/spent/remaining)."""
        return {
            scope: {
                source: {
                    "total": budget.total,
                    "spent": budget.spent,
                    "remaining": budget.total - budget.spent,
                }
                for source, budget in sorted(sources.items())
            }
            for scope, sources in sorted(self.budgets.items())
        }


def state_to_json(state: LedgerState) -> str:
    """Serialise a :class:`LedgerState` for the snapshot table.

    ``float('inf')`` totals round-trip through Python's JSON ``Infinity``
    extension, which :func:`json.loads` accepts by default.
    """
    return json.dumps(
        {
            scope: {
                source: {"total": budget.total, "spent": budget.spent}
                for source, budget in sources.items()
            }
            for scope, sources in state.budgets.items()
        },
        sort_keys=True,
    )


def state_from_json(payload: str | None) -> LedgerState:
    """Parse a snapshot row back into a :class:`LedgerState`."""
    state = LedgerState()
    if not payload:
        return state
    decoded = json.loads(payload)
    for scope, sources in decoded.items():
        for source, entry in sources.items():
            state.budgets.setdefault(scope, {})[source] = BudgetState(
                total=float(entry["total"]), spent=float(entry["spent"])
            )
    return state


def replay(
    snapshot: LedgerState,
    rows: Iterable[Mapping[str, Any]],
    pending: dict[str, list[Mapping[str, Any]]] | None = None,
) -> LedgerState:
    """Apply write-ahead-log rows on top of a snapshot, in log order.

    ``rows`` are mappings with at least ``kind``/``txn``/``scope``/``source``/
    ``amount`` keys (sqlite rows from the ``wal`` table).  Transactions are
    resolved by their ``commit`` or ``abort`` row; intents of transactions
    that never resolve within ``rows`` are dropped (see the module docstring
    for why that is exact).  ``pending``, when given, maps transaction id to
    intents read before ``rows`` and still unresolved, and is updated in
    place: on return it holds the intents left unresolved after ``rows``.
    Compaction keeps those in the log for a resolution row that may still
    arrive from a concurrent worker, and a store resuming its fold hands them
    back in front of the next rows.
    """
    state = snapshot.copy()
    if pending is None:
        pending = {}
    for row in rows:
        kind = row["kind"]
        if kind == "register":
            # First registration wins; re-registration rows are never
            # appended for an existing (scope, source) pair.
            budget = state.budget(row["scope"], row["source"])
            if budget is None:
                state.ensure(row["scope"], row["source"], float(row["amount"]))
        elif kind == "intent":
            pending.setdefault(row["txn"], []).append(row)
        elif kind == "commit":
            for intent in pending.pop(row["txn"], []):
                budget = state.ensure(
                    intent["scope"], intent["source"], float("inf")
                )
                budget.spent += float(intent["amount"])
        elif kind == "abort":
            pending.pop(row["txn"], None)
    return state
