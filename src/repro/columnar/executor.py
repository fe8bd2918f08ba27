"""The vectorized execution backend and the size-based auto dispatcher.

:class:`VectorizedExecutor` implements the PR-1 :class:`~repro.core.executor.
Executor` protocol over the columnar kernels: plans are walked exactly like
the eager backend (memoised by node identity, so shared sub-plans evaluate
once per batch), but every intermediate result is a
:class:`~repro.columnar.dataset.ColumnarDataset` and every operator runs its
NumPy kernel.  Results cross the executor boundary still in columns (a
:class:`~repro.columnar.dataset.ColumnBackedDataset`, which *is* a
:class:`~repro.core.dataset.WeightedDataset`): a release is ordered from
per-code tokens and decodes only the records it releases, and the record dict
is built only for a caller that reads the dataset itself — so a chain of joins
and filters never leaves array form, and a measurement never builds a dict.

:class:`AutoExecutor` fronts an eager and a vectorized backend and routes
each plan by the support size of the protected sources it references: tiny
inputs stay on the eager evaluator (no encode/decode overhead), large ones go
columnar.  Its decisions are inspectable through ``Queryable.explain()`` /
``repro explain``, which annotate every plan node with the backend that will
execute it.
"""

from __future__ import annotations

import os
from typing import Any, Mapping, Sequence

from ..core.dataset import WeightedDataset
from ..core.executor import EagerExecutor
from ..core.plan import Plan
from ..exceptions import PlanError
from . import kernels
from .dataset import ColumnarDataset
from .specs import (
    Constant,
    ExplodeFields,
    Field,
    FieldIs,
    FieldsDiffer,
    GroupSize,
    JoinFields,
    Permute,
)

__all__ = [
    "VectorizedExecutor",
    "AutoExecutor",
    "DEFAULT_AUTO_THRESHOLD",
    "runs_per_record",
]

#: Total source support (rows) above which ``"auto"`` picks the vectorized
#: backend.  Overridable per-executor and via ``REPRO_AUTO_THRESHOLD``.
DEFAULT_AUTO_THRESHOLD = 2048


#: Plan ``op`` -> for each operand its kernel can take as array work, in
#: operand order, the spec types that qualify.  Ops that are absent have no
#: such operand (a cap, a factor, nothing at all) and never run per record.
_ARRAY_SPECS: dict[str, tuple[tuple[type, ...], ...]] = {
    "select": ((Permute, Field, Constant),),
    "where": ((FieldsDiffer, FieldIs),),
    "select_many": ((ExplodeFields,),),
    "group_by": ((Field,), (GroupSize,)),
    "shave": ((int, float),),
    "join": ((Field, Permute), (Field, Permute), (JoinFields,)),
}


def runs_per_record(plan: Plan) -> bool:
    """Whether the kernel for ``plan`` calls Python once per record.

    Judged from the node's operands alone, which is all ``explain`` has: a
    recognised spec takes its kernel's array path on the decomposed datasets
    the analyses produce, anything else (a plain function, a closure such as
    a partition part's predicate, a join key facing a key of another shape)
    is called record by record.
    """
    operands = plan.operands()
    if not all(map(isinstance, operands, _ARRAY_SPECS.get(plan.op, ()))):
        return True
    if plan.op == "join":
        left, right = operands[:2]
        if type(left) is not type(right):
            return True
        return isinstance(left, Permute) and len(left.indices) != len(right.indices)
    return False


class VectorizedExecutor(EagerExecutor):
    """Plan evaluation over columnar datasets and NumPy kernels.

    Subclasses :class:`~repro.core.executor.EagerExecutor` to inherit all of
    its batch machinery — the id-keyed memo table scoped to one batch, the
    plan pinning that keeps ids unique, ``evaluation_count`` and the one
    evaluation rule — and overrides only what differs: sources encode to
    :class:`~repro.columnar.dataset.ColumnarDataset`, a node's ``op`` is
    looked up among the vectorized kernels, and batch results are handed
    over as column-backed :class:`WeightedDataset` values.  Environment
    values may be :class:`WeightedDataset` (encoded once and cached per
    registered object) or already-columnar :class:`ColumnarDataset` values —
    the latter is how the MCMC scorer feeds its incrementally updated weight
    vectors straight to the kernels.
    """

    rules = kernels

    def __init__(self, environment: Mapping[str, Any]) -> None:
        super().__init__(environment)
        # name -> (the registered WeightedDataset, its encoding).  The dataset
        # object itself is held (and compared by identity) rather than its
        # id(): a strong reference keeps the address from being reused by a
        # later dataset, which would otherwise serve a stale encoding.
        self._encoded: dict[str, tuple[WeightedDataset, ColumnarDataset]] = {}

    # ------------------------------------------------------------------
    def backend_for(self, plan: Plan) -> str:
        """Every plan handed to this executor runs vectorized."""
        return "vectorized"

    def dataset(self, name: str) -> ColumnarDataset:
        """Resolve a source to columnar form (encoding memoised per object)."""
        try:
            dataset = self._environment[name]
        except KeyError as exc:
            raise PlanError(f"no dataset bound for source {name!r}") from exc
        if isinstance(dataset, ColumnarDataset):
            return dataset
        if not isinstance(dataset, WeightedDataset):
            raise PlanError(
                f"source {name!r} must be bound to a WeightedDataset or "
                f"ColumnarDataset, got {type(dataset).__name__}"
            )
        cached = self._encoded.get(name)
        if cached is None or cached[0] is not dataset:
            cached = (dataset, ColumnarDataset.from_weighted(dataset))
            self._encoded[name] = cached
        return cached[1]

    # ------------------------------------------------------------------
    def evaluate_many(self, plans: Sequence[Plan]) -> list[WeightedDataset]:
        """Evaluate a batch; shared sub-plans are evaluated once, columnar.

        The results are still columns (:meth:`ColumnarDataset.to_weighted`):
        ``session.measure`` releases them without a record dict, and a direct
        caller pays for the decode on its first read, once per result.
        """
        return [dataset.to_weighted() for dataset in self.evaluate_columnar(plans)]

    def evaluate_columnar(self, plans: Sequence[Plan]) -> list[ColumnarDataset]:
        """Like :meth:`evaluate_many`, as the bare :class:`ColumnarDataset`.

        This is the inherited batch evaluation — memo scoping included —
        whose values are columnar because the sources and :attr:`rules` are.
        """
        return super().evaluate_many(plans)

    def reset(self) -> None:
        """Drop memoised results and cached source encodings."""
        super().reset()
        self._encoded = {}


class AutoExecutor:
    """Route plans to eager or vectorized execution by input size.

    The decision compares the summed supports of the referenced protected
    sources against ``threshold`` rows.  Small inputs run eagerly (dict
    pipelines beat array encode/decode on a handful of records); everything
    else runs on the columnar kernels.  A multi-plan batch is routed as **one
    unit** — vectorized if any of its plans would route vectorized — so the
    once-per-batch evaluation of shared sub-plans is preserved; per-plan
    :meth:`backend_for` reports the routing of the plan measured on its own,
    which is also what ``Queryable.explain`` annotates.  Both delegates share
    this executor's environment, so either answer is evaluated against the
    same protected data.
    """

    def __init__(
        self,
        environment: Mapping[str, WeightedDataset],
        threshold: int | None = None,
    ) -> None:
        if threshold is None:
            threshold = int(
                os.environ.get("REPRO_AUTO_THRESHOLD", DEFAULT_AUTO_THRESHOLD)
            )
        if threshold < 0:
            raise PlanError("auto threshold must be non-negative")
        self.threshold = threshold
        self._environment = environment
        self._eager = EagerExecutor(environment)
        self._vectorized = VectorizedExecutor(environment)

    # ------------------------------------------------------------------
    def backend_for(self, plan: Plan) -> str:
        """The backend this executor would run ``plan`` on right now."""
        total = 0
        for name in plan.source_names():
            dataset = self._environment.get(name)
            if dataset is not None:
                total += len(dataset)
        return "vectorized" if total >= self.threshold else "eager"

    # ------------------------------------------------------------------
    def evaluate(self, plan: Plan) -> WeightedDataset:
        """Evaluate a single plan (a one-element batch)."""
        return self.evaluate_many([plan])[0]

    def evaluate_many(self, plans: Sequence[Plan]) -> list[WeightedDataset]:
        """Evaluate the batch on one delegate (vectorized if any plan is big).

        Routing the whole batch together keeps the shared-sub-plan guarantee:
        a sub-plan referenced by several requests is evaluated once no matter
        how their individual sizes would have routed them.
        """
        if any(self.backend_for(plan) == "vectorized" for plan in plans):
            return self._vectorized.evaluate_many(plans)
        return self._eager.evaluate_many(plans)

    def reset(self) -> None:
        """Reset both delegates."""
        self._eager.reset()
        self._vectorized.reset()
