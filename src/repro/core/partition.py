"""Partitioning a query into disjoint parts with parallel composition.

PINQ's ``Partition`` operator is the standard way to ask many questions about
disjoint slices of a protected dataset at the price of one: because the parts
are disjoint restrictions of the same (transformed) dataset, the L1 distance
between neighbouring datasets decomposes additively across parts,

    Σ_k ‖Q_k(A) − Q_k(A')‖  ≤  ‖Q(A) − Q(A')‖  ≤  k · ‖A − A'‖ ,

so measuring *every* part with parameter ``ε`` costs the protected sources the
same ``k·ε`` a single measurement of the whole query would (``k`` being its
stability bound, Section 2.3's source multiplicity).  wPINQ generalises PINQ,
and the argument above only uses stability and the decomposition of ``‖·‖``
over disjoint supports, so the operator carries over to weighted datasets
unchanged.

The accounting rule implemented here is the PINQ one: for each protected
source, a partition group charges the running **maximum** over its parts of
the ε accumulated on that part (times the parent query's stability bound),
rather than the sum.  Parts may be transformed further and measured repeatedly
and at different ε; every measurement only pays for the amount by which it
raises the group's maximum.

Two conservative simplifications keep the accounting simple and sound:

* parts of *other* partition groups appearing inside a part's plan are treated
  as ordinary transformations (they are charged at their full bound rather
  than enjoying their own max-accounting), and
* the group's parent bounds are taken from the parent plan as built;
  re-joining a part with the raw protected source is charged separately, as a
  direct use.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Iterable, Iterator

from ..exceptions import PlanError
from .laplace import validate_epsilon
from .plan import Plan, stability_bounds

__all__ = ["Partition", "PartitionPlan", "PartitionGroup"]


class PartitionPlan(Plan):
    """Restriction of a parent plan to the records of one partition key.

    Semantically identical to ``Where(parent, key(x) == part_key)`` — which
    is all any backend sees (``op``, with the part predicate as the operand);
    the dedicated node type exists so measurement-time accounting can
    recognise which partition group (and which part) a use of the parent
    flows through.
    """

    op = "where"
    params = ("part_predicate",)
    stability = 1.0

    def __init__(
        self,
        child: Plan,
        key: Callable[[Any], Any],
        part_key: Any,
        group: "PartitionGroup",
    ) -> None:
        if not isinstance(child, Plan):
            raise PlanError(f"expected a Plan child, got {type(child).__name__}")
        self.child = child
        self.children = (child,)
        self.key = key
        self.part_key = part_key
        self.group = group

    @property
    def part_predicate(self) -> Callable[[Any], bool]:
        """Predicate selecting exactly this part's records."""
        key = self.key
        part_key = self.part_key
        return lambda record: key(record) == part_key

    def _label(self) -> str:
        return f"Partition(part={self.part_key!r})"


class PartitionGroup:
    """Budget bookkeeping shared by all parts of one ``partition`` call.

    For every part the group tracks the cumulative ``ε × (stability bound of
    the measured plan with respect to this part's partition node)`` spent by
    measurements.  The amount owed to each protected source is ``max over
    parts × parent bound``; each new measurement is charged only the increase
    of that amount.
    """

    def __init__(self, parent_plan: Plan) -> None:
        self._parent_bounds = dict(stability_bounds(parent_plan))
        self._part_epsilon: dict[Any, float] = {}
        self._charged: dict[str, float] = {}

    # ------------------------------------------------------------------
    def part_epsilon(self, part_key: Any) -> float:
        """Cumulative ε accumulated on one part so far."""
        return self._part_epsilon.get(part_key, 0.0)

    def max_epsilon(self) -> float:
        """The current maximum cumulative ε over all parts."""
        return max(self._part_epsilon.values(), default=0.0)

    def charged(self) -> dict[str, float]:
        """ε charged to each protected source by this group so far."""
        return dict(self._charged)

    # ------------------------------------------------------------------
    def pending_batch(
        self,
        measurements: Iterable[tuple[Plan, float]],
    ) -> tuple[Counter, dict[Any, float], dict[str, float]]:
        """Cost a batch of measurements over this group without charging.

        Returns ``(direct_costs, pending_part_epsilon, group_costs)``: the
        summed ``ε × direct bound`` charges, the part-ε totals the batch would
        leave behind, and the per-source charge for the resulting increase of
        the group maximum.  Nothing is committed; the caller charges the
        ledger atomically and, once it commits, hands ``pending_part_epsilon``
        (plus the total charged) to :meth:`commit_pending`.
        """
        direct_total: Counter = Counter()
        pending = dict(self._part_epsilon)
        for plan, epsilon in measurements:
            epsilon = validate_epsilon(epsilon)
            direct, arrivals = self._attribute(plan)
            for name, bound in direct.items():
                direct_total[name] += bound * epsilon
            for part_key, weight in arrivals.items():
                pending[part_key] = pending.get(part_key, 0.0) + weight * epsilon
        old_max = max(self._part_epsilon.values(), default=0.0)
        new_max = max(pending.values(), default=0.0)
        increase = max(0.0, new_max - old_max)
        group_costs: dict[str, float] = {}
        if increase > 0.0:
            for name, bound in self._parent_bounds.items():
                group_costs[name] = increase * bound
        return direct_total, pending, group_costs

    def commit_pending(
        self, pending: dict[Any, float], costs: dict[str, float]
    ) -> None:
        """Record a batch's part-ε totals and charged amounts.

        Called once the ledger's charge commits (``BudgetLedger.after_commit``).
        """
        self._part_epsilon = pending
        for name, cost in costs.items():
            self._charged[name] = self._charged.get(name, 0.0) + cost

    def preview_cost(self, plan: Plan, epsilon: float) -> dict[str, float]:
        """The per-source charge a measurement *would* incur, without charging."""
        direct, _pending, group_costs = self.pending_batch([(plan, epsilon)])
        return self._merge_costs(direct, group_costs)

    @staticmethod
    def _merge_costs(
        direct: Counter, group_costs: dict[str, float]
    ) -> dict[str, float]:
        """Sum direct and max-increase charges, dropping zero entries."""
        costs: dict[str, float] = dict(group_costs)
        for name, cost in direct.items():
            costs[name] = costs.get(name, 0.0) + cost
        return {name: cost for name, cost in costs.items() if cost > 0.0}

    # ------------------------------------------------------------------
    def _attribute(self, plan: Plan) -> tuple[dict, dict]:
        """Split ``plan``'s stability bound into direct and per-part weights.

        :func:`~repro.core.plan.stability_bounds` with this group's partition
        nodes as leaves: a path ends at one of them (its weight recorded
        against the node's part) or at a source, and is scaled by every
        stability constant on the way, exactly as the measurement's charge
        would be.  Partition nodes of other groups are transformations like
        any other, so their sources end up in the direct (fully charged)
        bucket.
        """

        def own_part(node: Plan) -> Plan | None:
            return node if isinstance(node, PartitionPlan) and node.group is self else None

        direct: dict[str, float] = {}
        arrivals: dict[Any, float] = {}
        for key, weight in stability_bounds(plan, leaf=own_part).items():
            if isinstance(key, PartitionPlan):
                arrivals[key.part_key] = arrivals.get(key.part_key, 0.0) + weight
            else:
                direct[key] = weight
        return direct, arrivals


class Partition:
    """The mapping of part keys to queryables returned by ``Queryable.partition``.

    Iterating yields ``(part_key, queryable)`` pairs; indexing by a part key
    returns the corresponding queryable.  All parts share one
    :class:`PartitionGroup`, so their measurements compose in parallel.
    """

    def __init__(self, parent, key: Callable[[Any], Any], keys: Iterable[Any]) -> None:
        # Imported here to avoid a circular import at module load time.
        from .queryable import Queryable

        if not isinstance(parent, Queryable):
            raise PlanError("partition() requires a Queryable parent")
        part_keys = list(keys)
        if not part_keys:
            raise PlanError("partition() requires at least one part key")
        if len(set(part_keys)) != len(part_keys):
            raise PlanError("partition() part keys must be distinct")
        self._session = parent.session
        self._group = PartitionGroup(parent.plan)
        self._parts: dict[Any, PartQueryable] = {}
        for part_key in part_keys:
            plan = PartitionPlan(parent.plan, key, part_key, self._group)
            self._parts[part_key] = PartQueryable(parent.session, plan, self._group)

    # ------------------------------------------------------------------
    @property
    def group(self) -> PartitionGroup:
        """The budget-accounting group shared by every part."""
        return self._group

    def keys(self) -> list[Any]:
        """The part keys, in the order supplied."""
        return list(self._parts)

    def __getitem__(self, part_key: Any) -> "PartQueryable":
        try:
            return self._parts[part_key]
        except KeyError as exc:
            raise PlanError(f"no partition part with key {part_key!r}") from exc

    def __iter__(self) -> Iterator[tuple[Any, "PartQueryable"]]:
        return iter(self._parts.items())

    def __len__(self) -> int:
        return len(self._parts)

    def items(self) -> Iterator[tuple[Any, "PartQueryable"]]:
        """Iterate over ``(part_key, queryable)`` pairs."""
        return iter(self._parts.items())

    def noisy_counts(self, epsilon: float, query_name: str = ""):
        """Measure every part at ``epsilon`` and return ``{part_key: result}``.

        Thanks to parallel composition the whole sweep costs each protected
        source the same as a single measurement of the un-partitioned query;
        issued as one :meth:`PrivacySession.measure` batch, so the shared
        parent plan is also *evaluated* only once.
        """
        part_keys = list(self._parts)
        results = self._session.measure(
            *[
                (
                    self._parts[part_key],
                    epsilon,
                    f"{query_name or 'partition'}[{part_key!r}]",
                )
                for part_key in part_keys
            ]
        )
        return dict(zip(part_keys, results))


# Imported late so that PartQueryable can subclass Queryable without creating
# an import cycle at module load time.
from .queryable import Queryable  # noqa: E402


class PartQueryable(Queryable):
    """A queryable over one partition part.

    Behaves exactly like a :class:`Queryable` — every stable transformation is
    available and further derived queryables stay attached to the same
    partition group — except that measurements (``noisy_count``, ``noisy_sum``,
    :meth:`PrivacySession.measure`) are charged through the group's
    parallel-composition accounting instead of plain sequential composition.
    """

    def __init__(self, session, plan: Plan, group: PartitionGroup) -> None:
        super().__init__(session, plan)
        self._group = group

    @property
    def partition_group(self) -> PartitionGroup:
        """The accounting group this part belongs to."""
        return self._group

    def _wrap(self, plan: Plan) -> "PartQueryable":
        return PartQueryable(self._session, plan, self._group)

    # ------------------------------------------------------------------
    def privacy_cost(self, epsilon: float) -> dict[str, float]:
        """The charge the *next* measurement at ``epsilon`` would incur.

        Unlike the base class this is stateful: once the group's maximum has
        been raised by one part, sibling parts can often measure for free.
        """
        return self._group.preview_cost(self._plan, epsilon)
