"""The unified execution backend behind the query API.

Every way a wPINQ plan gets evaluated — an analyst's ``noisy_count``, a
batched ``PrivacySession.measure`` call, or the MCMC loop's repeated
re-evaluation over synthetic data — goes through an :class:`Executor`.  Two
conforming backends are provided:

:class:`EagerExecutor`
    The reference evaluator, refactored out of ``Plan.evaluate``.  It walks
    the plan DAG once per batch, memoising results by plan-node *identity* so
    a sub-plan shared by several measurements (``length_two_paths``, the
    symmetric edge set, a degree table) is evaluated exactly once no matter
    how many roots reference it.  Nothing survives the batch.

:class:`DataflowExecutor`
    The incremental engine (:mod:`repro.dataflow`) wrapped behind the same
    interface.  Plans are compiled into one long-lived dataflow graph that is
    kept warm across measurements: evaluating a batch whose plans are already
    compiled costs only the collector reads, and shared sub-plans compile to
    shared operator nodes with shared state (Section 4.3 of the paper).

Two further backends live in :mod:`repro.columnar` and are resolved lazily by
:func:`create_executor`:

``"vectorized"`` (:class:`~repro.columnar.executor.VectorizedExecutor`)
    Columnar evaluation — records dictionary-encoded into NumPy code arrays,
    every stable transformation executed as a vectorized kernel.

``"auto"`` (:class:`~repro.columnar.executor.AutoExecutor`)
    Routes each plan to eager or vectorized execution by the support size of
    the protected sources it references.

Executors only *evaluate*; privacy accounting stays in
:mod:`repro.core.budget` / :mod:`repro.core.measurement` and noise in
:mod:`repro.core.aggregation`, so neither backend can weaken the privacy
semantics — they must merely agree on ``Q(A)``, which the test suite checks
property-style for every operator.

Keeping a re-measured plan's answer is not an executor's job: the eager and
vectorized evaluators keep nothing from one batch for the next, because
neither can know that its environment will not change (the vectorized one
also serves the MCMC scorer's mutable sources), and the dataflow executor's
compiled graph — there for the MCMC loop's delta pushes — survives only until
a batch names an unknown plan.  The layer that does know is the session,
whose protected datasets cannot be rebound:
:meth:`PrivacySession.hold <repro.core.queryable.PrivacySession.hold>` keeps
a plan's final output, above and for every backend alike, and measurements of
it never reach the executor again.
"""

from __future__ import annotations

from importlib import import_module
from typing import Iterable, Mapping, Protocol, Sequence, runtime_checkable

from ..exceptions import PlanError
from . import transformations
from .dataset import WeightedDataset
from .plan import Plan

__all__ = [
    "Executor",
    "EagerExecutor",
    "DataflowExecutor",
    "EXECUTORS",
    "create_executor",
]


@runtime_checkable
class Executor(Protocol):
    """What the measurement layer requires of an execution backend."""

    def evaluate(self, plan: Plan) -> WeightedDataset:
        """Evaluate a single plan against the protected environment."""
        ...

    def evaluate_many(self, plans: Sequence[Plan]) -> list[WeightedDataset]:
        """Evaluate a batch of plans, evaluating shared sub-plans once."""
        ...

    def reset(self) -> None:
        """Drop any cached state (memo tables, compiled graphs)."""
        ...


class EagerExecutor:
    """Eager plan evaluation with shared-sub-plan memoisation.

    Parameters
    ----------
    environment:
        Mapping of source names to :class:`WeightedDataset` values.  A live
        mapping (such as a session's dataset registry) may be passed; it is
        read at evaluation time.
    memo:
        Optional pre-seeded memo table (``id(plan) -> dataset``), used by the
        ``Plan.evaluate`` compatibility wrapper.

    The memo table lives for one :meth:`evaluate_many` call, so no
    intermediate dataset outlives the batch.
    """

    def __init__(
        self,
        environment: Mapping[str, WeightedDataset],
        memo: dict[int, WeightedDataset] | None = None,
    ) -> None:
        self._environment = environment
        self._memo: dict[int, WeightedDataset] = memo if memo is not None else {}
        # Strong references to every memoised plan: ids are only unique among
        # *live* objects, so the memo pins its keys' plans to keep ids stable.
        self._pinned: dict[int, Plan] = {}
        self._last_counts: dict[int, int] = {}

    # ------------------------------------------------------------------
    def backend_for(self, plan: Plan) -> str:
        """Every plan handed to this executor evaluates eagerly."""
        return "eager"

    def dataset(self, name: str) -> WeightedDataset:
        """Resolve a source name against the environment (the ``source`` rule)."""
        try:
            dataset = self._environment[name]
        except KeyError as exc:
            raise PlanError(f"no dataset bound for source {name!r}") from exc
        if not isinstance(dataset, WeightedDataset):
            raise PlanError(
                f"source {name!r} must be bound to a WeightedDataset, "
                f"got {type(dataset).__name__}"
            )
        return dataset

    # ------------------------------------------------------------------
    #: Where a node's ``op`` is looked up: a namespace with one function per
    #: transformation, called as ``op(*child values, *operands)``.  The
    #: columnar :class:`~repro.columnar.executor.VectorizedExecutor` reuses
    #: all of this class's memoisation/pinning machinery and swaps only this
    #: (and :meth:`dataset`, hence the value type) out.
    rules = transformations

    def _compute(self, plan: Plan) -> WeightedDataset:
        """Produce one node's value: the single evaluation rule."""
        if plan.op == "source":
            return self.dataset(*plan.operands())
        rule = getattr(self.rules, plan.op, None)
        if rule is None:
            raise PlanError(
                f"cannot evaluate plan node of type {type(plan).__name__}: "
                f"no transformation named {plan.op!r} in {self.rules.__name__}"
            )
        return rule(*map(self.recurse, plan.children), *plan.operands())

    def recurse(self, plan: Plan) -> WeightedDataset:
        """Evaluate ``plan`` within the current batch's memo scope.

        This is the entry point plan nodes call for their children; use
        :meth:`evaluate` / :meth:`evaluate_many` from application code so the
        memo table is scoped to the batch.
        """
        key = id(plan)
        if key not in self._memo:
            self._pinned[key] = plan
            self._last_counts[key] = self._last_counts.get(key, 0) + 1
            self._memo[key] = self._compute(plan)
        return self._memo[key]

    def evaluate(self, plan: Plan) -> WeightedDataset:
        """Evaluate a single plan (a one-element batch)."""
        return self.evaluate_many([plan])[0]

    def evaluate_many(self, plans: Sequence[Plan]) -> list[WeightedDataset]:
        """Evaluate a batch of plans; shared sub-plans are evaluated once."""
        self._last_counts = {}
        try:
            return [self.recurse(plan) for plan in plans]
        finally:
            # No intermediate dataset stays alive past the batch; only the
            # (tiny) per-batch statistics survive.
            self._memo = {}
            self._pinned = {}

    def reset(self) -> None:
        """Drop the memo table and the last batch's statistics."""
        self._memo = {}
        self._pinned = {}
        self._last_counts = {}

    # ------------------------------------------------------------------
    def evaluation_count(self, plan: Plan) -> int:
        """How many times ``plan`` was *computed* by the last batch.

        A plan shared by several roots reports 1; a plan the batch never
        reached — such as one the session holds and did not hand over —
        reports 0.  Used by tests and benchmarks to verify the
        shared-sub-plan guarantee.
        """
        return self._last_counts.get(id(plan), 0)


class DataflowExecutor:
    """Incremental execution backend: compiled plans stay warm.

    The first batch compiles every plan into one
    :class:`~repro.dataflow.engine.DataflowEngine` and streams the protected
    datasets through it; later batches over already-registered plans read the
    materialised collectors without touching the data again — the intended
    use: a working set of plans measured repeatedly over a long-lived
    session, or the MCMC synthesiser pushing deltas through one compiled
    graph (obtained directly via :meth:`compile`).

    A batch containing *unknown* plans cannot extend the running graph (new
    operators would have missed the already-streamed data), so the engine is
    rebuilt from exactly that batch's plans.  The warm set is therefore
    always the last compiled batch: re-measuring it is free, while a stream
    of distinct one-off queries degrades to roughly eager cost — each rebuild
    compiles and streams only the plans actually being measured, never an
    unbounded history.
    """

    def __init__(self, environment: Mapping[str, WeightedDataset]) -> None:
        self._environment = environment
        self._engine = None
        # id -> plan of the last compiled batch; doubles as the pin that
        # keeps ids stable, like EagerExecutor's memo.
        self._plans: dict[int, Plan] = {}

    # ------------------------------------------------------------------
    @property
    def engine(self):
        """The current compiled engine (None before the first evaluation)."""
        return self._engine

    def backend_for(self, plan: Plan) -> str:
        """Every plan handed to this executor runs on the dataflow engine."""
        return "dataflow"

    def compile(self, plans: Iterable[Plan]):
        """Ensure every plan is compiled and loaded; return the live engine."""
        from ..dataflow.engine import DataflowEngine

        plans = list(plans)
        if self._engine is None or any(id(plan) not in self._plans for plan in plans):
            self._plans = {id(plan): plan for plan in plans}
            engine = DataflowEngine.from_plans(plans)
            engine.initialize(
                {name: data for name, data in self._environment.items()}
            )
            self._engine = engine
        return self._engine

    # ------------------------------------------------------------------
    def evaluate(self, plan: Plan) -> WeightedDataset:
        """Evaluate a single plan (a one-element batch)."""
        return self.evaluate_many([plan])[0]

    def evaluate_many(self, plans: Sequence[Plan]) -> list[WeightedDataset]:
        """Evaluate a batch of plans through the warm incremental graph."""
        engine = self.compile(plans)
        return [engine.output(plan) for plan in plans]

    def reset(self) -> None:
        """Forget every compiled plan and drop the engine."""
        self._engine = None
        self._plans = {}


#: Executor name -> (module relative to this package, class): the one list of
#: names ``create_executor``, ``repro --executor`` and the docs go by.  The
#: columnar and sharded modules import this one, hence the import by name at
#: creation time.
EXECUTORS: dict[str, tuple[str, str]] = {
    "eager": (".executor", "EagerExecutor"),
    "dataflow": (".executor", "DataflowExecutor"),
    "vectorized": ("..columnar.executor", "VectorizedExecutor"),
    "auto": ("..columnar.executor", "AutoExecutor"),
    "sharded": ("..shard.executor", "ShardedExecutor"),
}


def create_executor(
    spec,
    environment: Mapping[str, WeightedDataset],
) -> Executor:
    """Resolve an executor specification to a backend bound to ``environment``.

    ``spec`` may be one of the names in :data:`EXECUTORS` — ``"eager"``
    (the reference evaluator, fresh memo per batch), ``"dataflow"`` (the
    incremental engine, last compiled batch kept), ``"vectorized"`` (the
    columnar NumPy-kernel backend), ``"auto"`` (eager for tiny inputs,
    vectorized for large ones) and ``"sharded"`` (process-parallel sharded
    execution with a vectorized fallback) — or a *factory*: a callable taking
    the environment mapping and returning an :class:`Executor`.  A pre-built
    executor instance is rejected: it would be bound to some other
    environment and silently measure the wrong data (the session's dataset
    registry only exists once the session does).
    """
    if isinstance(spec, str):
        if spec not in EXECUTORS:
            names = ", ".join(repr(name) for name in EXECUTORS)
            raise PlanError(
                f"unknown executor {spec!r}; expected {names}, or a factory "
                f"callable taking the environment"
            )
        module, name = EXECUTORS[spec]
        return getattr(import_module(module, __package__), name)(environment)
    # Classes count as factories (EagerExecutor itself is "a callable taking
    # the environment"); runtime_checkable isinstance is hasattr-based, so an
    # executor *class* would otherwise be mistaken for an instance here.
    if not isinstance(spec, type) and isinstance(spec, Executor):
        raise PlanError(
            "pass an executor factory (a callable taking the session's "
            "environment mapping), not a pre-built Executor instance — an "
            "instance cannot be bound to the session's datasets"
        )
    if callable(spec):
        executor = spec(environment)
        if not isinstance(executor, Executor):
            raise PlanError(
                f"executor factory returned {type(executor).__name__}, "
                f"which does not implement the Executor protocol"
            )
        return executor
    raise PlanError(f"cannot use {type(spec).__name__} as an executor")
