"""The paper's graph analyses expressed as wPINQ queries."""

from .assortativity import (
    assortativity_from_jdd,
    estimate_assortativity,
    mean_neighbor_degree_by_degree,
)
from .common import (
    length_two_paths,
    node_degrees,
    nodes_from_edges,
    protect_graph,
    reverse_edge,
    rotate,
    sorted_degrees,
    symmetrize,
)
from .clustering import (
    WEDGE_EDGE_USES,
    closure_ratio,
    measure_wedges,
    wedge_signal,
    wedges_query,
)
from .degrees import (
    degree_ccdf_query,
    degree_sequence_query,
    measure_degree_ccdf,
    measure_degree_sequence,
    measure_node_count,
    node_count_from_measurement,
    node_count_query,
)
from .itemsets import (
    itemset_weight_contribution,
    itemsets_query,
    measure_itemsets,
    protect_baskets,
    top_itemsets,
)
from .joint_degree import (
    jdd_record_weight,
    joint_degree_query,
    measure_joint_degrees,
    rescale_jdd_measurement,
)
from .motifs import (
    STAR_EDGE_USES,
    cycles_by_intersect_query,
    edge_uses_for_cycles,
    edge_uses_for_paths,
    paths_query,
    star_degree_query,
    stars_from_degree_histogram,
)
from .squares import (
    SBD_EDGE_USES,
    measure_squares_by_degree,
    rescale_sbd_measurement,
    sbd_record_weight,
    squares_by_degree_query,
    theorem3_mechanism,
)
from .triangles import (
    TBD_EDGE_USES,
    TBI_EDGE_USES,
    measure_triangles_by_degree,
    measure_triangles_by_intersect,
    rescale_tbd_measurement,
    tbd_record_weight,
    tbi_signal,
    theorem2_mechanism,
    triangles_by_degree_query,
    triangles_by_intersect_query,
)

#: The named graph analyses, name -> (description, builder over the protected
#: edges queryable): what ``repro explain`` and a bare ``repro lint`` list and
#: what every hosted session of ``repro serve`` answers.
NAMED_QUERIES = {
    "degree-ccdf": ("degree CCDF (Section 3.1)", degree_ccdf_query),
    "degree-sequence": (
        "non-increasing degree sequence (Section 3.1)",
        degree_sequence_query,
    ),
    "node-count": ("half node count (Section 2.8)", node_count_query),
    "jdd": ("joint degree distribution (Section 3.2)", joint_degree_query),
    "tbd": ("triangles by degree (Section 3.3)", triangles_by_degree_query),
    "tbi": ("triangles by intersect (Section 5.3)", triangles_by_intersect_query),
    "wedges": ("wedge count", wedges_query),
    "sbd": ("squares by degree", squares_by_degree_query),
    "stars": ("star degree histogram", star_degree_query),
}

__all__ = [
    "NAMED_QUERIES",
    "protect_graph",
    "symmetrize",
    "reverse_edge",
    "rotate",
    "sorted_degrees",
    "node_degrees",
    "nodes_from_edges",
    "length_two_paths",
    "degree_ccdf_query",
    "degree_sequence_query",
    "node_count_query",
    "measure_degree_ccdf",
    "measure_degree_sequence",
    "measure_node_count",
    "node_count_from_measurement",
    "joint_degree_query",
    "measure_joint_degrees",
    "jdd_record_weight",
    "rescale_jdd_measurement",
    "assortativity_from_jdd",
    "estimate_assortativity",
    "mean_neighbor_degree_by_degree",
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
    "squares_by_degree_query",
    "measure_squares_by_degree",
    "sbd_record_weight",
    "rescale_sbd_measurement",
    "theorem3_mechanism",
    "SBD_EDGE_USES",
    "paths_query",
    "cycles_by_intersect_query",
    "edge_uses_for_paths",
    "edge_uses_for_cycles",
    "star_degree_query",
    "stars_from_degree_histogram",
    "STAR_EDGE_USES",
    "wedges_query",
    "measure_wedges",
    "wedge_signal",
    "closure_ratio",
    "WEDGE_EDGE_USES",
    "protect_baskets",
    "itemsets_query",
    "measure_itemsets",
    "itemset_weight_contribution",
    "top_itemsets",
]
