"""Batched differentially private measurements.

:meth:`repro.core.queryable.PrivacySession.measure` is the one entry point
through which measurements reach the protected data.  It accepts any number of
``(queryable, epsilon)`` requests and processes them as a single unit:

1. **Atomic budget charging.**  The per-source cost of the whole batch is
   computed up front — sequential composition (``Σ εᵢ × bound``, the plan's
   stability bound of Theorem 1, which is Section 2.3's multiplicity unless
   a ``DownScale`` tightens it) for ordinary queryables, parallel
   composition (the increase of the per-group running maximum, Section 2.3
   / PINQ's ``Partition``) for requests over partition parts — and charged
   against every budget in one atomic ledger transaction.  If *any* source cannot afford the batch,
   nothing is charged and no data is touched.

2. **Shared-sub-plan evaluation.**  All plans are handed to the session's
   :class:`~repro.core.executor.Executor` as one batch, so a sub-plan shared
   by several requests (``length_two_paths``, a degree table, the symmetric
   edge set) is evaluated exactly once per batch regardless of how many
   measurements reference it.  Plans the session holds
   (:meth:`PrivacySession.hold`) whose exact output an earlier batch already
   computed are left out of that batch — ``Q(A)`` is a constant of a session,
   only the charge above and the noise below depend on ε — so a batch made
   of such plans alone never reaches the executor.

3. **Noise.**  Each request's exact output is released through an independent
   :class:`~repro.core.aggregation.NoisyCountResult`, in request order, so a
   batch is distributionally identical to the same measurements taken one by
   one (and bit-for-bit identical under a fixed seed with the eager backend),
   whether the exact output was just evaluated or was held.

``Queryable.noisy_count`` is a one-element batch, so all existing analyst code
keeps its exact semantics; ``Queryable.noisy_sum`` is priced and charged by
the same :func:`charge_requests`.

:func:`execute_batch` always runs under the session's
:attr:`~repro.core.queryable.PrivacySession.measure_lock` (taken by
``PrivacySession.measure``), so the whole pipeline — ledger charge, partition
group commits, executor evaluation, noise draws — is atomic with respect to
other threads measuring the same session.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from ..exceptions import PlanError
from .aggregation import NoisyCountResult
from .laplace import validate_epsilon
from .plan import stability_bounds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .queryable import Queryable

__all__ = ["MeasurementRequest", "MeasurementSet", "charge_requests", "execute_batch"]


@dataclass(frozen=True)
class MeasurementRequest:
    """One measurement of a batch: a queryable, its ε, and an optional name."""

    queryable: "Queryable"
    epsilon: float
    query_name: str = ""

    @property
    def label(self) -> str:
        """The ledger description used for this request."""
        return self.query_name or f"noisy_count(eps={self.epsilon:g})"


def as_request(item: Any) -> MeasurementRequest:
    """Coerce ``(queryable, ε)`` / ``(queryable, ε, name)`` tuples to requests."""
    from .queryable import Queryable

    if isinstance(item, MeasurementRequest):
        request = item
    elif isinstance(item, tuple) and len(item) in (2, 3):
        request = MeasurementRequest(*item)
    else:
        raise PlanError(
            "measure() accepts MeasurementRequest objects or "
            "(queryable, epsilon[, name]) tuples, got "
            f"{type(item).__name__}"
        )
    if not isinstance(request.queryable, Queryable):
        raise PlanError(
            f"measurement target must be a Queryable, got "
            f"{type(request.queryable).__name__}"
        )
    epsilon = validate_epsilon(request.epsilon)
    if epsilon != request.epsilon:
        request = MeasurementRequest(request.queryable, epsilon, request.query_name)
    return request


class MeasurementSet(Sequence[NoisyCountResult]):
    """The released results of one :meth:`PrivacySession.measure` batch.

    Behaves as a sequence in request order; named requests are additionally
    reachable through :meth:`by_name`.  :attr:`charged` records the per-source
    ε the whole batch cost (after parallel-composition discounts).
    """

    def __init__(
        self,
        requests: Sequence[MeasurementRequest],
        results: Sequence[NoisyCountResult],
        charged: dict[str, float],
    ) -> None:
        self._requests = list(requests)
        self._results = list(results)
        self.charged = dict(charged)

    def __getitem__(self, index):
        return self._results[index]

    def __len__(self) -> int:
        return len(self._results)

    def __iter__(self) -> Iterator[NoisyCountResult]:
        return iter(self._results)

    @property
    def requests(self) -> list[MeasurementRequest]:
        """The normalised requests, in the order they were issued."""
        return list(self._requests)

    @property
    def results(self) -> list[NoisyCountResult]:
        """The released results, in request order."""
        return list(self._results)

    def by_name(self) -> dict[str, NoisyCountResult]:
        """Map each named request to its result (unnamed requests omitted)."""
        return {
            request.query_name: result
            for request, result in zip(self._requests, self._results)
            if request.query_name
        }

    def total_epsilon(self) -> dict[str, float]:
        """Alias for :attr:`charged` (per-source ε consumed by this batch)."""
        return dict(self.charged)

    def __repr__(self) -> str:
        names = ", ".join(request.label for request in self._requests)
        return f"<MeasurementSet n={len(self._results)} [{names}]>"


def charge_requests(
    session, requests: Sequence[MeasurementRequest], description: str
) -> dict[str, float]:
    """Price a batch of requests and charge it as one ledger transaction.

    Sequential composition for ordinary queryables — each request costs
    ``bound[s]·ε`` per source, the plan's
    :func:`~repro.core.plan.stability_bounds` — and parallel (max)
    composition per partition group for requests over partition parts.  If
    any source cannot afford the batch the ledger refuses it and nothing is
    charged or committed.  Returns the per-source amounts charged.
    """
    from .partition import PartQueryable

    costs: dict[str, float] = {}
    group_requests: dict[Any, list[tuple[Any, float]]] = {}

    for request in requests:
        queryable = request.queryable
        if isinstance(queryable, PartQueryable):
            group_requests.setdefault(queryable.partition_group, []).append(
                (queryable.plan, request.epsilon)
            )
        else:
            for name, bound in stability_bounds(queryable.plan).items():
                costs[name] = costs.get(name, 0.0) + bound * request.epsilon

    commits = []
    for group, measured in group_requests.items():
        direct, pending, increase_costs = group.pending_batch(measured)
        # Direct uses reach sources without passing through this group's
        # partition nodes and compose sequentially, like any other request.
        group_costs = group._merge_costs(direct, increase_costs)
        commits.append(partial(group.commit_pending, pending, group_costs))
        for name, cost in group_costs.items():
            costs[name] = costs.get(name, 0.0) + cost

    costs = {name: cost for name, cost in costs.items() if cost > 0.0}
    if costs:
        session.ledger.charge(costs, description=description)
    # Part totals move only once the charge is final: a durable transaction
    # that rolls back must leave them as they were.
    for commit in commits:
        session.ledger.after_commit(commit)
    return costs


def execute_batch(session, items: Sequence[Any]) -> MeasurementSet:
    """Charge, evaluate and release a batch of measurements for ``session``.

    This is the implementation behind :meth:`PrivacySession.measure`; see the
    module docstring for the composition rules.
    """
    requests = [as_request(item) for item in items]
    for request in requests:
        if request.queryable.session is not session:
            raise PlanError(
                "cannot measure a queryable from a different privacy session"
            )
    if not requests:
        return MeasurementSet([], [], {})

    # 1. Cost the whole batch and charge it in one atomic ledger transaction.
    if len(requests) == 1:
        description = requests[0].label
    else:
        description = (
            f"measure[{len(requests)}]: "
            + ", ".join(request.label for request in requests)
        )
    costs = charge_requests(session, requests, description)

    # 2. Evaluate every plan not already held in one executor batch (shared
    #    sub-plans once), then draw noise per request, in request order.
    exacts = session._exact_outputs(
        [request.queryable.plan for request in requests]
    )
    results = [
        NoisyCountResult(
            exact,
            request.epsilon,
            noise=session.noise,
            plan=request.queryable.plan,
            query_name=request.query_name,
        )
        for request, exact in zip(requests, exacts)
    ]
    return MeasurementSet(requests, results, costs)
