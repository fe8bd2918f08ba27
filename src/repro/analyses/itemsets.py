"""Frequent itemset mining over weighted baskets.

The paper motivates ``SelectMany`` with exactly this workload (Section 2.4):
a basket of goods is transformed into all of its size-``k`` subsets, and the
number of subsets *varies per basket*, which worst-case sensitivity frameworks
cannot exploit but weighted datasets handle naturally — each basket's subsets
simply share at most one unit of weight.

The queries here release, for every itemset of a chosen size, a noisy weight
in which a basket containing ``n`` items contributes ``1/C(n, k)`` to each of
its ``C(n, k)`` size-``k`` subsets.  Small baskets therefore speak loudly
about their few subsets while enormous baskets are smoothly attenuated —
the same "calibrate data, not noise" trade the graph queries make.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from math import comb
from typing import Any, Iterable, Sequence

from ..core.aggregation import NoisyCountResult
from ..core.queryable import PrivacySession, Queryable
from .common import shared_query

__all__ = [
    "protect_baskets",
    "itemsets_query",
    "measure_itemsets",
    "itemset_weight_contribution",
    "top_itemsets",
]


def protect_baskets(
    session: PrivacySession,
    baskets: Iterable[Sequence[Any]],
    name: str = "baskets",
    total_epsilon: float = float("inf"),
) -> Queryable:
    """Register a collection of baskets as a protected dataset.

    Each basket is stored as a single record — a tuple of its distinct items,
    sorted for canonical form — with weight 1.0.  Differential privacy then
    masks the presence or absence of entire baskets (the usual "user level"
    guarantee for transaction data).
    """
    records = [tuple(sorted(set(basket))) for basket in baskets]
    return session.protect(name, records, total_epsilon)


@shared_query
def itemsets_query(baskets: Queryable, size: int) -> Queryable:
    """All size-``size`` itemsets, weighted by attenuated basket support.

    Uses ``SelectMany``: a basket with ``n ≥ size`` items produces its
    ``C(n, size)`` subsets, scaled to carry at most one unit of weight in
    total.  The query uses the basket dataset once, so a measurement at ε
    costs ε regardless of how large any basket is.
    """
    if size < 1:
        raise ValueError("itemset size must be at least 1")
    return baskets.select_many(partial(_subsets, size))


def _subsets(size: int, basket: Sequence[Any]) -> list[tuple[Any, ...]]:
    """Every size-``size`` subset of ``basket`` (a module-level function, so
    the plan pickles)."""
    return [tuple(subset) for subset in combinations(basket, size)]


def itemset_weight_contribution(basket_size: int, itemset_size: int) -> float:
    """Weight a single basket contributes to each of its size-``k`` subsets.

    ``1 / max(1, C(n, k))`` — the SelectMany normalisation for a basket of
    ``n`` distinct items.  Zero if the basket is smaller than the itemset.
    """
    if basket_size < itemset_size:
        return 0.0
    return 1.0 / max(1, comb(basket_size, itemset_size))


def measure_itemsets(
    baskets: Queryable, size: int, epsilon: float
) -> NoisyCountResult:
    """Release the noisy attenuated support of every size-``size`` itemset."""
    return itemsets_query(baskets, size).noisy_count(
        epsilon, query_name=f"itemsets(size={size})"
    )


def top_itemsets(
    measurement: NoisyCountResult, count: int = 10
) -> list[tuple[Any, float]]:
    """The ``count`` itemsets with the largest released weights.

    A convenience for the common "frequent itemsets" readout; purely
    post-processing of released values, so it costs no additional privacy.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    ranked = sorted(measurement.items(), key=lambda item: -item[1])
    return ranked[:count]
