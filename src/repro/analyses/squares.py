"""Squares (4-cycles) by degree: the SbD query of Section 3.4 and Theorem 3.

The same path-join idea as TbD extended one hop: length-three paths
``(a, b, c, d)`` are built by joining length-two paths on their shared edge,
then matched against their double rotation to pick out closed 4-cycles and
collect all four corner degrees.  Every square is discovered eight times (four
rotations in each direction), and its sorted degree quadruple accumulates the
weight ``8 ×`` equation (6)::

    4 / (d_a²(d_d−1) + d_d²(d_a−1) + d_b²(d_c−1) + d_c²(d_b−1))

The query uses the symmetric edge dataset 12 times.

Intermediate records are flat tuples with the degrees as trailing fields —
``(a, b, c, d_b)``, then ``(a, b, c, d, d_b, d_c)`` — and every step but the
final sort is a structural spec from :mod:`repro.columnar.specs`.
"""

from __future__ import annotations

from typing import Any

from ..columnar.specs import Field, FieldsDiffer, JoinFields, Permute
from ..core.aggregation import NoisyCountResult
from ..core.laplace import LaplaceNoise, validate_epsilon
from ..core.queryable import Queryable
from ..graph.graph import Graph
from ..graph.statistics import squares_by_degree as exact_squares_by_degree
from .common import shared_query, length_two_paths, node_degrees, sorted_degrees

__all__ = [
    "squares_by_degree_query",
    "measure_squares_by_degree",
    "sbd_record_weight",
    "rescale_sbd_measurement",
    "theorem3_mechanism",
    "SBD_EDGE_USES",
]

#: Times the symmetric edge dataset appears in the SbD plan (Section 3.4).
SBD_EDGE_USES = 12


@shared_query
def squares_by_degree_query(edges: Queryable) -> Queryable:
    """The SbD query: sorted degree quadruples of every 4-cycle.

    Pipeline (Section 3.4); degree labels ride as extra fields of flat
    records, so every step but the last is a structural spec::

        abc  = (paths ⋈ degs)                          # (a, b, c, d_b)
        abcd = abc ⋈ abc  on (b,c)=(a,b), drop a==d    # (a, b, c, d, d_b, d_c)
        cdab = abcd with the path rotated twice        # (c, d, a, b, d_b, d_c)
        sq   = abcd ⋈ cdab on the path                 # (d_d, d_b, d_c, d_a)
        out  = sq.Select(sorted degrees)
    """
    paths = length_two_paths(edges)
    degrees = node_degrees(edges)
    path = Permute(0, 1, 2, 3)

    path_with_middle_degree = paths.join(
        degrees,
        left_key=Field(1),
        right_key=Field(0),
        result_selector=JoinFields(("l", 0), ("l", 1), ("l", 2), ("r", 1)),
    )

    # Join length-two paths (a,b,c) and (b,c,d) on their shared edge (b,c),
    # carrying the middle degrees d_b (from the left) and d_c (from the right).
    length_three = path_with_middle_degree.join(
        path_with_middle_degree,
        left_key=Permute(1, 2),
        right_key=Permute(0, 1),
        result_selector=JoinFields(
            ("l", 0), ("l", 1), ("l", 2), ("r", 2), ("l", 3), ("r", 3)
        ),
    ).where(FieldsDiffer(0, 3))

    rotated_twice = length_three.select(Permute(2, 3, 0, 1, 4, 5))

    squares = length_three.join(
        rotated_twice,
        left_key=path,
        right_key=path,
        result_selector=JoinFields(("r", 4), ("l", 4), ("l", 5), ("r", 5)),
    )
    return squares.select(sorted_degrees)


def sbd_record_weight(
    degree_a: int, degree_b: int, degree_c: int, degree_d: int
) -> float:
    """Total weight one square ``a-b-c-d-a`` adds to its sorted quadruple.

    Eight discoveries, each at the weight of equation (6).
    """
    denominator = (
        degree_a**2 * (degree_d - 1)
        + degree_d**2 * (degree_a - 1)
        + degree_b**2 * (degree_c - 1)
        + degree_c**2 * (degree_b - 1)
    )
    return 8.0 / (2.0 * denominator)


def measure_squares_by_degree(edges: Queryable, epsilon: float) -> NoisyCountResult:
    """Measure SbD; the privacy cost is ``12·ε`` for the symmetric edge set."""
    return squares_by_degree_query(edges).noisy_count(
        epsilon, query_name="squares_by_degree"
    )


def rescale_sbd_measurement(measurement: NoisyCountResult) -> dict[Any, float]:
    """Convert released SbD weights into (noisy) square counts per quadruple.

    Note that unlike TbD, squares whose corner degrees coincide but sit in
    different cyclic positions can receive slightly different weights (the
    weight depends on which degrees are *opposite* each other); the rescaling
    here uses the sorted-order weight and is exact whenever the quadruple
    identifies the cyclic arrangement (e.g. when at most two distinct degrees
    are involved), and an approximation otherwise — the caveat Section 3.5
    raises for general motifs.
    """
    rescaled: dict[Any, float] = {}
    for record, value in measurement.items():
        rescaled[record] = value / sbd_record_weight(*record)
    return rescaled


def theorem3_mechanism(
    graph: Graph,
    epsilon: float,
    noise: LaplaceNoise | None = None,
) -> dict[tuple[int, int, int, int], float]:
    """The release mechanism of Theorem 3, applied directly to a graph.

    For every observed degree quadruple ``(v, x, y, z)`` the exact 4-cycle
    count is released plus ``Laplace(6(vx(v+x) + yz(y+z))/ε)`` noise.
    """
    epsilon = validate_epsilon(epsilon)
    noise = noise if noise is not None else LaplaceNoise()
    released: dict[tuple[int, int, int, int], float] = {}
    for quad, count in exact_squares_by_degree(graph).items():
        v, x, y, z = quad
        scale = 6.0 * (v * x * (v + x) + y * z * (y + z)) / epsilon
        released[quad] = count + scale * float(noise.rng.laplace(loc=0.0, scale=1.0))
    return released
