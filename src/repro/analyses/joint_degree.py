"""Joint degree distribution (JDD) analysis (Section 3.2).

The JDD reports, for every degree pair ``(d_a, d_b)``, the number of edges
incident on a vertex of degree ``d_a`` and a vertex of degree ``d_b``.  Sala
et al. release it with bespoke noise ``4·max(d_a, d_b)/ε`` per pair; the
wPINQ query below produces each directed pair ``(d_a, d_b)`` with weight
``1/(2 + 2·d_a + 2·d_b)``, so a unit-noise measurement carries error
proportional to ``2 + 2·d_a + 2·d_b`` after rescaling — the automatic (if
constant-factor worse) counterpart of the bespoke analysis, with the privacy
proof for free.

The intermediate record is the flat ``(a, b, d_a)``; an edge meets its reverse
through the composite keys ``Permute(0, 1)`` / ``Permute(1, 0)``.
"""

from __future__ import annotations

from typing import Any

from ..columnar.specs import Field, JoinFields, Permute
from ..core.aggregation import NoisyCountResult
from ..core.queryable import Queryable
from .common import shared_query, node_degrees

__all__ = [
    "joint_degree_query",
    "measure_joint_degrees",
    "jdd_record_weight",
    "rescale_jdd_measurement",
]


@shared_query
def joint_degree_query(edges: Queryable) -> Queryable:
    """The JDD as a wPINQ query over the symmetric directed edge set.

    Pipeline (Section 3.2); the degree rides as a third field of the flat
    edge record, so every step is a structural spec::

        degs = edges.GroupBy(src, count)                  # (a, d_a) @ 0.5
        temp = degs.Join(edges, a, src)                   # (a, b, d_a)
        jdd  = temp.Join(temp, (a, b), (b, a))            # (d_a, d_b)

    Every directed edge ``(a, b)`` contributes the record ``(d_a, d_b)`` with
    weight ``1/(2 + 2·d_a + 2·d_b)``.  The query uses the edge dataset four
    times, so a measurement at ε costs 4ε.
    """
    degrees = node_degrees(edges)
    edge_with_degree = degrees.join(
        edges,
        left_key=Field(0),
        right_key=Field(0),
        result_selector=JoinFields(("r", 0), ("r", 1), ("l", 1)),
    )
    return edge_with_degree.join(
        edge_with_degree,
        left_key=Permute(0, 1),
        right_key=Permute(1, 0),
        result_selector=JoinFields(("l", 2), ("r", 2)),
    )


def jdd_record_weight(degree_a: int, degree_b: int) -> float:
    """The weight equation (3) assigns to the record ``(d_a, d_b)``."""
    return 1.0 / (2.0 + 2.0 * degree_a + 2.0 * degree_b)


def measure_joint_degrees(edges: Queryable, epsilon: float) -> NoisyCountResult:
    """Measure the JDD query with ``Laplace(1/ε)`` noise per degree pair."""
    return joint_degree_query(edges).noisy_count(epsilon, query_name="joint_degree")


def rescale_jdd_measurement(measurement: NoisyCountResult) -> dict[Any, float]:
    """Convert released weights back into (noisy) directed edge counts.

    Each record ``(d_a, d_b)`` is divided by its per-edge weight
    ``1/(2 + 2 d_a + 2 d_b)``, so the value approximates the number of
    directed edges with that degree pair; the associated noise grows as
    ``(2 + 2 d_a + 2 d_b)/ε`` exactly as discussed in the paper.
    """
    rescaled: dict[Any, float] = {}
    for record, value in measurement.items():
        degree_a, degree_b = record
        rescaled[record] = value / jdd_record_weight(degree_a, degree_b)
    return rescaled
