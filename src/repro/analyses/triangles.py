"""Triangle analyses: TbD (Section 3.3) and TbI (Section 5.3).

Two very different wPINQ queries about the same structure:

* **Triangles by Degree (TbD)** releases, for every sorted degree triple
  ``(d_a, d_b, d_c)``, a weight of ``3/(d_a² + d_b² + d_c²)`` per triangle
  with those corner degrees.  Dividing the released value by that weight gives
  a noisy triangle count per triple, with error proportional to
  ``(d_a² + d_b² + d_c²)`` — Theorem 2.  The optional ``bucket`` argument
  groups nearby degrees to concentrate signal, the remedy of Section 5.2.

* **Triangles by Intersect (TbI)** releases a *single* number: the total
  weight ``Σ_Δ min(1/d_a,1/d_b) + min(1/d_a,1/d_c) + min(1/d_b,1/d_c)`` over
  all triangles (equation (8)).  It is harder for a human to interpret but
  uses the edge set only 4 times (versus 9 for TbD) and turns out to be a far
  better driver for MCMC synthesis.

Both queries expect the protected dataset to be the *symmetric directed* edge
set produced by :func:`repro.analyses.common.protect_graph`.

TbD's intermediate records are flat tuples with the degrees as trailing
fields — ``(a, b, c, d_b)``, then ``(a, b, c, d_b, d_a)`` — so its rotations,
join keys and selectors are all structural specs
(:mod:`repro.columnar.specs`), as TbI's already were.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..columnar.specs import Constant, Field, JoinFields, Permute
from ..core.aggregation import NoisyCountResult
from ..core.laplace import LaplaceNoise, validate_epsilon
from ..core.queryable import Queryable
from ..graph.graph import Graph
from ..graph.statistics import triangles_by_degree as exact_triangles_by_degree
from .common import shared_query, length_two_paths, node_degrees, sorted_degrees

__all__ = [
    "triangles_by_degree_query",
    "measure_triangles_by_degree",
    "tbd_record_weight",
    "rescale_tbd_measurement",
    "triangles_by_intersect_query",
    "measure_triangles_by_intersect",
    "tbi_signal",
    "theorem2_mechanism",
    "TBD_EDGE_USES",
    "TBI_EDGE_USES",
]

#: Times the symmetric edge dataset appears in each query plan; the paper's
#: hand counts (Sections 3.3 and 5.3), verified by tests against
#: ``Queryable.source_uses``.
TBD_EDGE_USES = 9
TBI_EDGE_USES = 4


# ----------------------------------------------------------------------
# Triangles by Degree (TbD)
# ----------------------------------------------------------------------
@shared_query
def triangles_by_degree_query(edges: Queryable, bucket: int = 1) -> Queryable:
    """The TbD query: sorted degree triples weighted per equation (4).

    Pipeline (Section 3.3); degree labels ride as extra fields of flat
    records, so every step but the last is a structural spec::

        paths = edges ⋈ edges  (length-two paths, minus 2-cycles)
        degs  = edges.GroupBy(src, count [/ bucket])
        abc   = paths ⋈ degs                  # (a, b, c, d_b)   @ 1/(2 d_b²)
        bca   = abc.Select(rotate path)       # (b, c, a, d_b): first vertex's
        cab   = bca.Select(rotate path)       # (c, a, b, d_b): third vertex's
        tris  = abc ⋈ bca ⋈ cab  (on the path)  # (d_c, d_b, d_a)
        out   = tris.Select(sorted degrees)

    Each triangle contributes weight ``1/(2(d_a²+d_b²+d_c²))`` six times (once
    per directed length-two path around it), so its sorted degree triple
    accumulates ``3/(d_a²+d_b²+d_c²)``.  The query uses the symmetric edge
    dataset :data:`TBD_EDGE_USES` = 9 times.
    """
    paths = length_two_paths(edges)
    degrees = node_degrees(edges, bucket=bucket)
    path = Permute(0, 1, 2)
    rotate_path = Permute(1, 2, 0, 3)

    path_with_middle_degree = paths.join(
        degrees,
        left_key=Field(1),
        right_key=Field(0),
        result_selector=JoinFields(("l", 0), ("l", 1), ("l", 2), ("r", 1)),
    )
    rotated_once = path_with_middle_degree.select(rotate_path)
    rotated_twice = rotated_once.select(rotate_path)

    first_join = path_with_middle_degree.join(
        rotated_once,
        left_key=path,
        right_key=path,
        result_selector=JoinFields(("l", 0), ("l", 1), ("l", 2), ("l", 3), ("r", 3)),
    )
    all_degrees = first_join.join(
        rotated_twice,
        left_key=path,
        right_key=path,
        result_selector=JoinFields(("r", 3), ("l", 3), ("l", 4)),
    )
    return all_degrees.select(sorted_degrees)


def tbd_record_weight(degree_a: int, degree_b: int, degree_c: int) -> float:
    """Total weight a single triangle adds to its sorted degree triple.

    Six directed paths, each at ``1/(2(d_a²+d_b²+d_c²))``, equation (4).
    """
    return 3.0 / float(degree_a**2 + degree_b**2 + degree_c**2)


def measure_triangles_by_degree(
    edges: Queryable, epsilon: float, bucket: int = 1
) -> NoisyCountResult:
    """Measure TbD; the privacy cost is ``9·ε`` for the symmetric edge set."""
    return triangles_by_degree_query(edges, bucket=bucket).noisy_count(
        epsilon, query_name=f"triangles_by_degree(bucket={bucket})"
    )


def rescale_tbd_measurement(
    measurement: NoisyCountResult, bucket: int = 1
) -> dict[Any, float]:
    """Convert released TbD weights into (noisy) triangle counts per triple.

    With ``bucket == 1`` each triple's value is divided by
    :func:`tbd_record_weight`.  With bucketing the per-record weight is no
    longer uniform within a bucket, so the raw weights are returned unscaled
    (the MCMC workflow consumes them directly and needs no rescaling).
    """
    if bucket != 1:
        return measurement.to_dict()
    rescaled: dict[Any, float] = {}
    for record, value in measurement.items():
        degree_a, degree_b, degree_c = record
        rescaled[record] = value / tbd_record_weight(degree_a, degree_b, degree_c)
    return rescaled


def theorem2_mechanism(
    graph: Graph,
    epsilon: float,
    noise: LaplaceNoise | None = None,
) -> dict[tuple[int, int, int], float]:
    """The release mechanism of Theorem 2, applied directly to a graph.

    For every observed degree triple ``(x, y, z)`` the exact triangle count is
    released plus ``Laplace(6(x²+y²+z²)/ε)`` noise.  (As with NoisyCount,
    asking about unobserved triples would return pure noise of the same
    scale; only observed triples are materialised here.)  This is the
    "interpreted" form of the TbD query and is used by the Figure 1 and
    ablation benchmarks.
    """
    epsilon = validate_epsilon(epsilon)
    noise = noise if noise is not None else LaplaceNoise()
    released: dict[tuple[int, int, int], float] = {}
    for triple, count in exact_triangles_by_degree(graph).items():
        x, y, z = triple
        scale = 6.0 * (x**2 + y**2 + z**2) / epsilon
        released[triple] = count + scale * float(
            noise.rng.laplace(loc=0.0, scale=1.0)
        )
    return released


# ----------------------------------------------------------------------
# Triangles by Intersect (TbI)
# ----------------------------------------------------------------------
@shared_query
def triangles_by_intersect_query(edges: Queryable) -> Queryable:
    """The TbI query: one record ``"triangle"`` carrying equation (8)'s weight.

    Length-two paths are intersected with their own rotation — a path survives
    exactly when it closes into a triangle — and all surviving weight is
    funnelled onto a single record.  The query uses the symmetric edge dataset
    :data:`TBI_EDGE_USES` = 4 times.  The rotation (``Permute(1, 2, 0)``) and
    the funnel (``Constant``) are structural specs, keeping the whole query on
    the vectorized backend's array path.
    """
    paths = length_two_paths(edges)
    triangles = paths.select(Permute(1, 2, 0)).intersect(paths)
    return triangles.select(Constant("triangle"))


def measure_triangles_by_intersect(edges: Queryable, epsilon: float) -> NoisyCountResult:
    """Measure TbI; the privacy cost is ``4·ε`` for the symmetric edge set."""
    return triangles_by_intersect_query(edges).noisy_count(
        epsilon, query_name="triangles_by_intersect"
    )


def tbi_signal(graph: Graph) -> float:
    """The exact value of equation (8) for a graph.

    ``Σ_{Δ(a,b,c)} min(1/d_a, 1/d_b) + min(1/d_a, 1/d_c) + min(1/d_b, 1/d_c)``
    — the "signal" the TbI measurement carries before noise.  Used to validate
    the query and to reason about signal-to-noise as in Section 5.2/5.3.
    """
    from ..graph.statistics import iter_triangles

    degrees = graph.degrees()
    total = 0.0
    for a, b, c in iter_triangles(graph):
        inv = sorted((1.0 / degrees[a], 1.0 / degrees[b], 1.0 / degrees[c]))
        # min over each unordered pair of the three inverse degrees.
        total += inv[0] + inv[0] + inv[1]
    return total


def expected_tbi_noise_std(epsilon: float) -> float:
    """Standard deviation of the single TbI release at parameter ε."""
    epsilon = validate_epsilon(epsilon)
    return float(np.sqrt(2.0)) / epsilon
