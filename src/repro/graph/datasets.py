"""Synthetic stand-ins for the paper's evaluation graphs.

The evaluation in Section 5 uses five real graphs (Table 1): the SNAP
collaboration networks CA-GrQc, CA-HepPh and CA-HepTh, the Caltech Facebook
network, and the Epinions trust graph, plus degree-preserving randomisations
of each ("Random(X)").  Those datasets cannot be downloaded in this offline
reproduction, so this module synthesises *stand-ins* that preserve the
properties the experiments rely on:

* heavy-tailed degree distributions with a comparable number of nodes/edges
  (scaled down by default so the full pipeline runs in CI),
* collaboration graphs with many triangles and strongly positive
  assortativity (clique-overlap model),
* social graphs with many triangles but near-zero assortativity
  (preferential attachment + triadic closure),
* random twins with the same degrees but few triangles (edge-swap rewiring).

Every stand-in is deterministic given its seed, and
:func:`paper_graphs` / :func:`paper_graph_with_twin` expose the same names
the paper uses so benchmark code reads like the original evaluation.  The
real-vs-stand-in statistics are printed side by side by ``repro table1`` (the
``table1`` record of :data:`repro.experiments.EXPERIMENTS`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import GraphError
from .generators import collaboration_graph, random_twin, social_graph
from .graph import Graph

__all__ = [
    "GraphSpec",
    "PAPER_GRAPH_SPECS",
    "PAPER_REPORTED_STATISTICS",
    "load_paper_graph",
    "paper_graphs",
    "paper_graph_with_twin",
]


@dataclass(frozen=True)
class GraphSpec:
    """Recipe for one stand-in graph.

    ``kind`` selects the generator ("collaboration" or "social").  For
    collaboration graphs ``interactions`` is the number of papers and
    ``mean_group``/``max_group`` the author-count distribution; for social
    graphs ``interactions`` is the number of edges per arriving node and
    ``closure`` the triadic-closure probability.  Node and interaction counts
    are full-scale values, multiplied by the ``scale`` argument of
    :func:`load_paper_graph` before generation.
    """

    name: str
    kind: str
    nodes: int
    interactions: int
    mean_group: float = 0.0
    max_group: int = 0
    activity_exponent: float = 0.5
    locality: float = 0.03
    repeat_collaborator: float = 0.3
    closure: float = 0.3
    seed: int = 0


#: Full-scale recipes chosen so that, at scale 1.0, node and edge counts are
#: comparable to the originals in Table 1.  The default scale used by the
#: experiments is considerably smaller (see the per-graph base scales in
#: ``repro.experiments.workflows``).
PAPER_GRAPH_SPECS: dict[str, GraphSpec] = {
    "CA-GrQc": GraphSpec(
        name="CA-GrQc",
        kind="collaboration",
        nodes=5242,
        interactions=9500,
        mean_group=3.4,
        max_group=10,
        activity_exponent=0.45,
        locality=0.025,
        repeat_collaborator=0.35,
        seed=101,
    ),
    "CA-HepPh": GraphSpec(
        name="CA-HepPh",
        kind="collaboration",
        nodes=12008,
        interactions=22000,
        mean_group=5.0,
        max_group=25,
        activity_exponent=0.55,
        locality=0.02,
        repeat_collaborator=0.4,
        seed=102,
    ),
    "CA-HepTh": GraphSpec(
        name="CA-HepTh",
        kind="collaboration",
        nodes=9877,
        interactions=21000,
        mean_group=2.8,
        max_group=8,
        activity_exponent=0.45,
        locality=0.035,
        repeat_collaborator=0.25,
        seed=103,
    ),
    "Caltech": GraphSpec(
        name="Caltech",
        kind="social",
        nodes=769,
        interactions=43,  # edges per arriving node (average degree ~86)
        closure=0.6,
        seed=104,
    ),
    "Epinions": GraphSpec(
        name="Epinions",
        kind="social",
        nodes=75879,
        interactions=13,
        closure=0.25,
        seed=105,
    ),
}

#: The statistics the paper reports for the real datasets (Table 1), kept for
#: side-by-side comparison in ``repro table1`` (README "Reproducing the paper").
PAPER_REPORTED_STATISTICS: dict[str, dict[str, float]] = {
    "CA-GrQc": {"nodes": 5242, "edges": 28980, "dmax": 81, "triangles": 48260, "assortativity": 0.66},
    "CA-HepPh": {"nodes": 12008, "edges": 237010, "dmax": 491, "triangles": 3358499, "assortativity": 0.63},
    "CA-HepTh": {"nodes": 9877, "edges": 51971, "dmax": 65, "triangles": 28339, "assortativity": 0.27},
    "Caltech": {"nodes": 769, "edges": 33312, "dmax": 248, "triangles": 119563, "assortativity": -0.06},
    "Epinions": {"nodes": 75879, "edges": 1017674, "dmax": 3079, "triangles": 1624481, "assortativity": -0.01},
    "Random(CA-GrQc)": {"nodes": 5242, "edges": 28992, "dmax": 81, "triangles": 586, "assortativity": 0.00},
    "Random(CA-HepPh)": {"nodes": 11996, "edges": 237190, "dmax": 504, "triangles": 323867, "assortativity": 0.04},
    "Random(CA-HepTh)": {"nodes": 9870, "edges": 52056, "dmax": 66, "triangles": 322, "assortativity": 0.05},
    "Random(Caltech)": {"nodes": 771, "edges": 33368, "dmax": 238, "triangles": 50269, "assortativity": 0.17},
    "Random(Epinions)": {"nodes": 75882, "edges": 1018060, "dmax": 3085, "triangles": 1059864, "assortativity": 0.00},
}


def load_paper_graph(
    name: str,
    scale: float = 0.2,
    seed: int | None = None,
) -> Graph:
    """Generate the stand-in for one of the paper's graphs.

    Parameters
    ----------
    name:
        One of ``CA-GrQc``, ``CA-HepPh``, ``CA-HepTh``, ``Caltech``,
        ``Epinions`` (case sensitive, as written in the paper).
    scale:
        Linear scale factor on the number of nodes (and interactions).  The
        default 0.2 keeps even the largest stand-ins laptop-sized; the
        benchmark harness documents the scale it uses for each experiment.
    seed:
        Override the spec's deterministic seed.
    """
    try:
        spec = PAPER_GRAPH_SPECS[name]
    except KeyError as exc:
        raise GraphError(
            f"unknown paper graph {name!r}; available: {sorted(PAPER_GRAPH_SPECS)}"
        ) from exc
    if scale <= 0:
        raise GraphError("scale must be positive")
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    nodes = max(30, int(round(spec.nodes * scale)))
    if spec.kind == "collaboration":
        interactions = max(30, int(round(spec.interactions * scale)))
        return collaboration_graph(
            nodes=nodes,
            papers=interactions,
            mean_authors=spec.mean_group,
            max_authors=spec.max_group,
            activity_exponent=spec.activity_exponent,
            locality=spec.locality,
            repeat_collaborator=spec.repeat_collaborator,
            rng=rng,
        )
    if spec.kind == "social":
        # Scale edges-per-node along with the node count so the *relative*
        # density (and hence the triangle contrast against the random twin)
        # matches the full-size graph.
        edges_per_node = max(3, min(int(round(spec.interactions * scale)), nodes // 4))
        return social_graph(
            nodes=nodes,
            edges_per_node=edges_per_node,
            closure_probability=spec.closure,
            rng=rng,
        )
    raise GraphError(f"unknown generator kind {spec.kind!r}")  # pragma: no cover


def paper_graph_with_twin(
    name: str,
    scale: float = 0.2,
    seed: int | None = None,
) -> tuple[Graph, Graph]:
    """Return ``(stand-in, Random(stand-in))`` for one paper graph.

    The twin has the same degree sequence but its edges randomly rewired,
    reproducing the "Random(X)" rows of Table 1 that the MCMC experiments use
    as a no-signal sanity check.
    """
    graph = load_paper_graph(name, scale=scale, seed=seed)
    spec_seed = PAPER_GRAPH_SPECS[name].seed if seed is None else seed
    twin = random_twin(graph, rng=np.random.default_rng(spec_seed + 5000))
    return graph, twin


def paper_graphs(scale: float = 0.2, names: list[str] | None = None) -> dict[str, Graph]:
    """Generate stand-ins for several paper graphs at once."""
    names = list(PAPER_GRAPH_SPECS) if names is None else names
    return {name: load_paper_graph(name, scale=scale) for name in names}
