"""The analyst-facing fluent query API and privacy session.

:class:`PrivacySession` owns the protected datasets, their privacy budgets,
the measurement noise source, and the **executor** — the single execution
backend (:mod:`repro.core.executor`) through which every plan is evaluated.
:meth:`PrivacySession.protect` wraps a dataset into a :class:`Queryable`,
wPINQ's analogue of a LINQ/PINQ queryable: each method call appends a stable
transformation to a logical plan, and no data is touched until a
differentially private aggregation such as :meth:`Queryable.noisy_count` is
requested.

Measurements — whether a single :meth:`Queryable.noisy_count` or a batch
submitted through :meth:`PrivacySession.measure` — go through the pipeline of
:mod:`repro.core.measurement`:

1. the per-source privacy cost of the whole batch is computed statically
   (sequential composition per Section 2.3; parallel composition for
   ``Partition`` parts),
2. every budget is charged atomically up front — refusing the entire batch,
   charging nothing, if any budget would be exceeded — and
3. all plans are evaluated in one executor batch (shared sub-plans evaluate
   exactly once; a plan under :meth:`PrivacySession.hold` is evaluated once
   in the session's life) and released as
   :class:`~repro.core.aggregation.NoisyCountResult` values.

A typical graph analysis looks like::

    session = PrivacySession(seed=0)
    edges = session.protect("edges", edge_records, total_epsilon=1.0)
    degrees = edges.group_by(key=lambda e: e[0], reducer=len)
    measurement = degrees.noisy_count(0.1)

and a batch that shares work between queries::

    ccdf, seq = session.measure(
        (degree_ccdf_query(edges), 0.1, "ccdf"),
        (degree_sequence_query(edges), 0.1, "sequence"),
    )
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from ..exceptions import PlanError
from ..resilience.deadline import check_deadline
from ..sanitize import ordered_rlock
from .aggregation import ExactAnswer, NoisyCountResult, noisy_sum
from .budget import BudgetLedger
from .dataset import WeightedDataset
from .executor import Executor, create_executor
from .laplace import LaplaceNoise, validate_epsilon
from .plan import (
    ConcatPlan,
    DistinctPlan,
    DownScalePlan,
    ExceptPlan,
    GroupByPlan,
    IntersectPlan,
    JoinPlan,
    Plan,
    SelectManyPlan,
    SelectPlan,
    ShavePlan,
    SourcePlan,
    UnionPlan,
    WherePlan,
    explain_plan,
    stability_bounds,
)

__all__ = ["PrivacySession", "Queryable"]


class PrivacySession:
    """Holds protected datasets, budgets, the noise source and the executor.

    Parameters
    ----------
    seed:
        Optional seed (or :class:`numpy.random.Generator`) for the Laplace
        noise used by every measurement taken through this session.  Fixing
        the seed makes experiments reproducible without weakening the privacy
        semantics of the mechanism itself.
    executor:
        The execution backend evaluating every measurement: a name from
        :data:`repro.core.executor.EXECUTORS` (``"eager"``, the default, is
        fresh memoisation per batch; :func:`~repro.core.executor
        .create_executor` describes each), or a factory callable taking the
        session's environment mapping and returning an
        :class:`~repro.core.executor.Executor`.
    ledger:
        Optional budget ledger to charge against instead of a fresh
        in-memory :class:`~repro.core.budget.BudgetLedger` — the measurement
        service injects a durable write-ahead-logged ledger here so spent ε
        survives restarts.
    """

    def __init__(
        self,
        seed: int | np.random.Generator | None = None,
        executor: str | Callable[[Mapping[str, WeightedDataset]], Executor] = "eager",
        ledger: BudgetLedger | None = None,
    ) -> None:
        # An injected ledger lets the hosting layer substitute a durable
        # write-ahead-logged one (repro.persistence.DurableLedger) without
        # the session knowing; budgets still register through protect().
        self.ledger = ledger if ledger is not None else BudgetLedger()
        self.noise = LaplaceNoise(seed)
        self._datasets: dict[str, WeightedDataset] = {}
        self._executor = create_executor(executor, self._datasets)
        # Serialises the whole measurement pipeline (budget charge, partition
        # group commits, executor evaluation, noise draws): the noise RNG and
        # the executor's memo tables are not thread-safe, so concurrent
        # measurements of one session take turns.  Re-entrant because a
        # locked caller (the measurement service) may itself call measure().
        self._measure_lock = ordered_rlock("core.measure", 40, io_ok=True)
        # Held plan -> its exact output, release-ready, once first measured
        # (see hold()).  Keyed by the plan object: plans hash by identity, and
        # the key keeps a held plan alive as long as the session.  Written
        # under the measure lock only; the counters are plain ints so that a
        # stats poll reads them without queueing behind an evaluation.
        self._held: dict[Plan, ExactAnswer | None] = {}
        # Held plans compute_held computed that no measurement has read yet.
        self._unmeasured: set[Plan] = set()
        self._held_reused = 0

    # ------------------------------------------------------------------
    def protect(
        self,
        name: str,
        data: WeightedDataset | Mapping[Any, float] | Iterable[Any],
        total_epsilon: float = float("inf"),
        record_weight: float = 1.0,
    ) -> "Queryable":
        """Register a protected dataset and return a queryable over it.

        ``data`` may be a :class:`WeightedDataset`, a mapping of record to
        weight, or a plain iterable of records (each given ``record_weight``,
        the usual way to lift a multiset such as a graph's edge list).
        """
        if name in self._datasets:
            raise PlanError(f"a dataset named {name!r} is already protected")
        if isinstance(data, WeightedDataset):
            dataset = data
        elif isinstance(data, Mapping):
            dataset = WeightedDataset(data)
        else:
            dataset = WeightedDataset.from_records(data, weight=record_weight)
        self._datasets[name] = dataset
        self.ledger.register(name, total_epsilon)
        return Queryable(self, SourcePlan(name))

    def from_plan(self, plan: Plan) -> "Queryable":
        """Wrap an existing plan (all of whose sources must be registered)."""
        missing = plan.source_names() - set(self._datasets)
        if missing:
            raise PlanError(f"plan references unregistered sources: {sorted(missing)}")
        return Queryable(self, plan)

    def hold(self, queryable: "Queryable") -> "Queryable":
        """Evaluate ``queryable``'s plan at most once in this session's life.

        A measurement is ``Q(A) + noise``; a protected dataset cannot be
        rebound (:meth:`protect` refuses), so ``Q(A)`` is a constant of the
        session and only the charge and the noise depend on ε.  Holding a
        plan makes :meth:`measure` keep its exact output the first time a
        batch evaluates it or :meth:`compute_held` asks — holding evaluates
        nothing — as one :class:`~repro.core.aggregation.ExactAnswer`: the
        records in noise-draw order and their weights, no intermediate
        result, no sub-plan.  Every later measurement of the plan, at any ε,
        is charged in full and draws fresh noise exactly as before (the
        released values and the noise stream are those of an unheld plan),
        but does not reach the executor.  The retained answers are protected
        data: they live and die with the session.

        For a plan that is re-measured (a hosted query, a per-ε sweep); the
        measurement service holds every query it hosts.  Returns
        ``queryable``.  ``noisy_sum`` reads the held answer the same way.
        """
        if queryable.session is not self:
            raise PlanError("cannot hold a queryable from a different privacy session")
        with self._measure_lock:
            self._held.setdefault(queryable.plan, None)
        return queryable

    def compute_held(self, queryable: "Queryable") -> None:
        """Compute a held plan's exact answer now, if not yet computed.

        Charges nothing and draws no noise.  The service calls it before the
        store transaction that charges and releases, so a refused first
        measurement costs this evaluation; the next measurement counts as
        the computing one, not as a reuse.
        """
        plan = queryable.plan
        if self._held.get(plan, True) is not None:
            return  # unheld, or computed for good: no lock needed to see it
        with self._measure_lock:
            if self._held[plan] is None:
                (exact,) = self._executor.evaluate_many([plan])
                self._held[plan] = ExactAnswer(exact)
                self._unmeasured.add(plan)

    def holds_exact(self, queryable: "Queryable") -> bool:
        """Whether ``queryable`` is held and its exact output already computed."""
        return self._held.get(queryable.plan) is not None

    def exact_stats(self) -> dict[str, int]:
        """Counts of held plans, of those computed, and of evaluations saved.

        ``computed`` stops growing once every held plan has been measured;
        ``reused`` then grows by one per measurement.  Lock-free reads of
        counts only.
        """
        answers = list(self._held.values())
        return {
            "held": len(answers),
            "computed": sum(answer is not None for answer in answers),
            "reused": self._held_reused,
        }

    def _exact_outputs(self, plans: Sequence[Plan]) -> list:
        """``Q(A)`` for each plan of a batch (measure lock held).

        Held plans already computed are reused; all the others go to the
        executor in **one** call, so sub-plans shared among them are still
        evaluated once — and a batch of nothing but hits never enters the
        executor (nor, on the sharded backend, its pool and breaker).
        """
        held, unmeasured = self._held, self._unmeasured
        # None marks a plan to evaluate: not held, or held and never computed.
        outputs: dict[Plan, Any] = {plan: held.get(plan) for plan in plans}
        self._held_reused += sum(outputs[plan] is not None for plan in plans)
        if unmeasured:  # the first read of an answer compute_held made is no reuse
            self._held_reused -= len(unmeasured.intersection(plans))
            unmeasured.difference_update(plans)
        missing = [plan for plan, output in outputs.items() if output is None]
        if missing:
            for plan, exact in zip(missing, self._executor.evaluate_many(missing)):
                if plan in held:
                    exact = held[plan] = ExactAnswer(exact)
                outputs[plan] = exact
        return [outputs[plan] for plan in plans]

    # ------------------------------------------------------------------
    @property
    def executor(self) -> Executor:
        """The execution backend every measurement of this session runs on."""
        return self._executor

    @property
    def measure_lock(self) -> threading.RLock:
        """The re-entrant lock serialising this session's measurements.

        Every measurement entry point (:meth:`measure`, and through it
        ``noisy_count``; ``noisy_sum``) runs under this lock, so a
        session may be shared between threads: concurrent measurements are
        totally ordered, the budget accounting stays exact, and under a fixed
        seed the released values are those of *some* sequential ordering of
        the requests.
        """
        return self._measure_lock

    def measure(self, *requests) -> "MeasurementSet":
        """Take a batch of measurements as one atomic unit.

        Each request is a ``(queryable, epsilon)`` or
        ``(queryable, epsilon, name)`` tuple, or a
        :class:`~repro.core.measurement.MeasurementRequest`.  The whole batch
        is charged atomically up front — sequential composition for ordinary
        queryables, parallel composition per partition group for
        ``Partition`` parts — and refused entirely (charging nothing) if any
        source's budget is insufficient.  All plans are then evaluated in one
        executor batch, so sub-plans shared between requests are evaluated
        exactly once (plans under :meth:`hold` once per session), and the
        results are returned in request order as a
        :class:`~repro.core.measurement.MeasurementSet`.

        A single iterable of requests may also be passed as the only
        positional argument.
        """
        from .measurement import MeasurementRequest, execute_batch

        if len(requests) == 1:
            first = requests[0]
            is_single_request = isinstance(first, (MeasurementRequest, Queryable)) or (
                isinstance(first, tuple)
                and bool(first)
                and isinstance(first[0], Queryable)
            )
            if not is_single_request:
                try:
                    requests = tuple(first)
                except TypeError:
                    # Fall through with the original argument so as_request
                    # raises its descriptive PlanError.
                    pass
        with self._measure_lock:
            # Last budget-safe deadline gate: past this point the batch is
            # charged atomically and always runs to release, so an expired
            # deadline must refuse *here* — consuming no ε — or not at all.
            check_deadline("measurement admission (pre-charge)")
            return execute_batch(self, requests)

    # ------------------------------------------------------------------
    def environment(self) -> dict[str, WeightedDataset]:
        """The mapping of source names to protected datasets (internal)."""
        return dict(self._datasets)

    def dataset(self, name: str) -> WeightedDataset:
        """Return the protected dataset registered under ``name`` (internal).

        Exposed for tests and for trusted-curator style workflows; analyst
        code should only ever interact with datasets through measurements.
        """
        try:
            return self._datasets[name]
        except KeyError as exc:
            raise PlanError(f"no protected dataset named {name!r}") from exc

    def remaining_budget(self, name: str) -> float:
        """ε remaining for the named protected dataset."""
        return self.ledger.remaining(name)

    def spent_budget(self, name: str) -> float:
        """ε already consumed by the named protected dataset."""
        return self.ledger.spent(name)

    def budget_report(self) -> dict[str, dict[str, float]]:
        """Per-source budget summary (total / spent / remaining)."""
        return self.ledger.report()


class Queryable:
    """A wPINQ query under construction.

    Instances are immutable: every transformation returns a new queryable
    wrapping a larger plan, so sub-queries can be freely shared and reused
    (the privacy accounting counts every use).
    """

    def __init__(self, session: PrivacySession, plan: Plan) -> None:
        self._session = session
        self._plan = plan

    # ------------------------------------------------------------------
    @property
    def session(self) -> PrivacySession:
        """The privacy session this queryable belongs to."""
        return self._session

    @property
    def plan(self) -> Plan:
        """The logical plan accumulated so far."""
        return self._plan

    def _wrap(self, plan: Plan) -> "Queryable":
        return Queryable(self._session, plan)

    def _check_same_session(self, other: "Queryable") -> None:
        if not isinstance(other, Queryable):
            raise PlanError(
                f"binary transformations require another Queryable, got "
                f"{type(other).__name__}"
            )
        if other._session is not self._session:
            raise PlanError("cannot combine queryables from different privacy sessions")

    # ------------------------------------------------------------------
    # Stable transformations (each documented in repro.core.transformations)
    # ------------------------------------------------------------------
    def select(self, mapper: Callable[[Any], Any]) -> "Queryable":
        """Per-record transformation; weights of colliding outputs accumulate."""
        return self._wrap(SelectPlan(self._plan, mapper))

    def where(self, predicate: Callable[[Any], bool]) -> "Queryable":
        """Keep only records satisfying ``predicate``."""
        return self._wrap(WherePlan(self._plan, predicate))

    def select_many(self, mapper: Callable[[Any], Any]) -> "Queryable":
        """One-to-many transformation with per-record down-scaling."""
        return self._wrap(SelectManyPlan(self._plan, mapper))

    def group_by(
        self,
        key: Callable[[Any], Any],
        reducer: Callable[[Sequence[Any]], Any] = tuple,
    ) -> "Queryable":
        """Group records by key and reduce each group."""
        return self._wrap(GroupByPlan(self._plan, key, reducer))

    def shave(self, slice_weights: Any = 1.0) -> "Queryable":
        """Break heavy records into indexed slices of the given weight(s)."""
        return self._wrap(ShavePlan(self._plan, slice_weights))

    def distinct(self, cap: float = 1.0) -> "Queryable":
        """Cap every record's weight at ``cap`` (PINQ's Distinct)."""
        return self._wrap(DistinctPlan(self._plan, cap))

    def down_scale(self, factor: float) -> "Queryable":
        """Uniformly scale every weight by ``factor`` with ``0 < factor ≤ 1``."""
        return self._wrap(DownScalePlan(self._plan, factor))

    def partition(
        self,
        key: Callable[[Any], Any],
        keys: Iterable[Any],
    ) -> "Partition":
        """Split the query into disjoint parts keyed by ``key``.

        Returns a :class:`~repro.core.partition.Partition`, a mapping from
        each value in ``keys`` to a queryable over the records whose key
        equals that value.  Measurements taken over different parts compose in
        *parallel*: the charge to each protected source is the running
        **maximum** over the parts, not the sum (the parts are disjoint
        restrictions, so ``Σ_k ‖Q_k(A) − Q_k(A')‖ ≤ ‖Q(A) − Q(A')‖``).
        """
        from .partition import Partition

        return Partition(self, key, keys)

    def join(
        self,
        other: "Queryable",
        left_key: Callable[[Any], Any],
        right_key: Callable[[Any], Any],
        result_selector: Callable[[Any, Any], Any] = lambda a, b: (a, b),
    ) -> "Queryable":
        """wPINQ's stable equi-join with per-key weight normalisation."""
        self._check_same_session(other)
        return self._wrap(
            JoinPlan(self._plan, other._plan, left_key, right_key, result_selector)
        )

    def union(self, other: "Queryable") -> "Queryable":
        """Element-wise maximum of weights."""
        self._check_same_session(other)
        return self._wrap(UnionPlan(self._plan, other._plan))

    def intersect(self, other: "Queryable") -> "Queryable":
        """Element-wise minimum of weights."""
        self._check_same_session(other)
        return self._wrap(IntersectPlan(self._plan, other._plan))

    def concat(self, other: "Queryable") -> "Queryable":
        """Element-wise sum of weights."""
        self._check_same_session(other)
        return self._wrap(ConcatPlan(self._plan, other._plan))

    def except_with(self, other: "Queryable") -> "Queryable":
        """Element-wise difference of weights."""
        self._check_same_session(other)
        return self._wrap(ExceptPlan(self._plan, other._plan))

    # ------------------------------------------------------------------
    # Privacy accounting
    # ------------------------------------------------------------------
    def source_uses(self) -> dict[str, float]:
        """Each protected source's stability bound in the plan.

        How many times the source appears (Section 2.3, counted per path),
        scaled by any ``DownScale`` on the way: see
        :func:`~repro.core.plan.stability_bounds`.
        """
        return dict(stability_bounds(self._plan))

    def privacy_cost(self, epsilon: float) -> dict[str, float]:
        """ε charged to each protected source by a measurement at ``epsilon``.

        A source whose stability bound is ``k`` — used ``k`` times, unless a
        ``DownScale`` tightens it — is charged ``k·ε`` (Section 2.3).
        """
        epsilon = validate_epsilon(epsilon)
        return {name: bound * epsilon for name, bound in stability_bounds(self._plan).items()}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def explain(self, epsilon: float | None = None, verify: bool = False) -> str:
        """Render the plan as a readable tree with per-source stability bounds.

        Shared sub-plans (evaluated once per batch by every backend) are
        tagged and back-referenced; the footer lists the bound each protected
        source would be charged at — with the concrete ``bound·ε`` amounts
        when ``epsilon`` is given.  Every node is annotated with the
        backend the session's executor will evaluate this plan on (``@eager``
        / ``@dataflow`` / ``@vectorized``), so the ``"auto"`` executor's
        size-based routing is inspectable.  ``verify=True`` adds the static
        stability/portability verification of :mod:`repro.lint.plans` (see
        :func:`~repro.core.plan.explain_plan`).  Also available from the
        shell as ``python -m repro explain <query> [--verify]``.
        """
        backend_for = getattr(self._session.executor, "backend_for", None)
        backend = backend_for(self._plan) if backend_for is not None else None
        return explain_plan(self._plan, epsilon, backend=backend, verify=verify)

    # ------------------------------------------------------------------
    # Aggregations
    # ------------------------------------------------------------------
    def noisy_count(self, epsilon: float, query_name: str = "") -> NoisyCountResult:
        """Release every record's weight with ``Laplace(1/ε)`` noise.

        Charges ``ε × bound`` (:meth:`privacy_cost`) to every protected
        source used by the plan before touching any data; raises
        :class:`~repro.exceptions.BudgetExceededError` (charging nothing) if
        any budget is insufficient.  Implemented as a one-element
        :meth:`PrivacySession.measure` batch.
        """
        return self._session.measure((self, epsilon, query_name))[0]

    def noisy_sum(
        self,
        epsilon: float,
        value_selector: Callable[[Any], float] = lambda record: 1.0,
        clamp: float = 1.0,
        query_name: str = "",
    ) -> float:
        """Release a single clamped, weighted sum with Laplace noise.

        Priced and charged exactly like a one-element :meth:`~PrivacySession
        .measure` batch (a partition part through its group's
        max-accounting), behind the same pre-charge deadline check; a plan
        under :meth:`~PrivacySession.hold` is evaluated once, as for
        :meth:`~PrivacySession.measure`.
        """
        from .measurement import as_request, charge_requests

        request = as_request((self, epsilon))
        label = query_name or f"noisy_sum(eps={request.epsilon:g})"
        with self._session.measure_lock:
            check_deadline("measurement admission (pre-charge)")
            charge_requests(self._session, [request], label)
            exact = self._session._exact_outputs([self._plan])[0]
            return noisy_sum(
                exact, request.epsilon, value_selector, clamp=clamp, noise=self._session.noise
            )

    # ------------------------------------------------------------------
    # Escape hatch (no privacy!)
    # ------------------------------------------------------------------
    def evaluate_unprotected(self) -> WeightedDataset:
        """Evaluate the plan exactly, with **no noise and no budget charge**.

        This exists for testing, for documentation examples, and for running
        wPINQ queries against *public/synthetic* datasets inside the MCMC
        loop.  It must never be used to release results about protected data.
        """
        return self._session.executor.evaluate(self._plan)

    def __repr__(self) -> str:
        uses = ", ".join(f"{name}×{bound:g}" for name, bound in sorted(self.source_uses().items()))
        return f"<Queryable uses=[{uses}]>"
