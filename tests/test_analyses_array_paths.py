"""The paper's named queries stay on the array paths of the columnar kernels.

Three guards around the flat-record form of TbD, JDD and SbD:

* on ``"vectorized"`` no node of any named query but the source encode and
  the final ``sorted_degrees`` select decodes records or interns atoms in bulk
  — the next nested-record query fails here, not in a profile;
* the three degree-labelled queries release what the nested-record plans they
  replace released, on every executor (values recorded from those plans);
* ``explain`` names the one per-record node left.
"""

from __future__ import annotations

import functools

import pytest

from repro import analyses
from repro.analyses import protect_graph
from repro.analyses.common import sorted_degrees
from repro.columnar import ColumnarDataset
from repro.columnar.executor import VectorizedExecutor
from repro.columnar.interning import Interner
from repro.core.plan import SelectPlan
from repro.core.queryable import PrivacySession
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph
from repro.shard.executor import ShardedExecutor
from repro.shard.plan import decode_plan, encode_plan

NAMED_QUERIES = {name: builder for name, (_, builder) in analyses.NAMED_QUERIES.items()}

#: The guard's graph.  Per-record work shows as a decode or an interning of
#: more atoms than the graph has vertices (1200 edge rows, thousands of paths);
#: the array paths' own lookup tables — one atom per distinct degree or shave
#: index — never exceed the vertex count.
VERTICES, EDGES_IN_GUARD = 200, 600


@pytest.mark.parametrize("name", sorted(NAMED_QUERIES))
def test_named_query_stays_off_the_per_record_paths(name, monkeypatch):
    graph = erdos_renyi(VERTICES, EDGES_IN_GUARD, rng=5)
    session = PrivacySession(seed=0, executor="vectorized")
    plan = NAMED_QUERIES[name](protect_graph(session, graph)).plan
    if isinstance(plan, SelectPlan) and plan.mapper is sorted_degrees:
        plan = plan.child  # sorting a degree tuple is per-record by nature
    executor = VectorizedExecutor({"edges": session._datasets["edges"]})
    executor.dataset("edges")  # the source encode interns every vertex once

    bulk: list[str] = []
    decode, intern = ColumnarDataset.records, Interner.codes

    def counted_decode(self):
        if len(self) > VERTICES:
            bulk.append(f"records() of {len(self)} rows")
        return decode(self)

    def counted_intern(self, atoms):
        atoms = list(atoms)
        if len(atoms) > VERTICES:
            bulk.append(f"Interner.codes of {len(atoms)} atoms")
        return intern(self, atoms)

    monkeypatch.setattr(ColumnarDataset, "records", counted_decode)
    monkeypatch.setattr(Interner, "codes", counted_intern)
    (result,) = executor.evaluate_columnar([plan])
    assert not bulk
    assert len(result) > 0


# Released by the nested-record ((a, b, c), d_b) plans of the parent commit at
# seed 7, epsilon 0.5 — identical on eager and dataflow, equal to 1e-9 on
# vectorized and sharded.
EDGES = [
    (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 0),
    (2, 5), (4, 6), (6, 7), (7, 4), (2, 4), (7, 8), (8, 0), (1, 8),
]  # fmt: skip
PARENT_RELEASES = {
    "tbd": [
        ((2, 3, 5), 0.654820733370267),
        ((3, 4, 4), 3.237084741888036),
        ((3, 4, 5), 1.7231197230799467),
        ((3, 5, 5), -1.493479635810262),
        ((4, 4, 5), -0.9679114096259813),
    ],
    "jdd": [
        ((2, 3), 0.6592066982825477),
        ((2, 5), 3.226414010180719),
        ((3, 2), 1.6864530564132798),
        ((3, 3), -1.4523174082073564),
        ((3, 4), -0.7705429885733497),
        ((3, 5), 3.0273545233400156),
        ((4, 3), -8.856938214593331),
        ((4, 4), 2.168109486742969),
        ((4, 5), 1.9034883828745164),
        ((5, 2), -0.07005760362934162),
        ((5, 3), -0.7237587810888503),
        ((5, 4), -1.0709143534100531),
        ((5, 5), -1.256803119187487),
    ],
    "sbd": [
        ((3, 3, 5, 5), 0.5991291789027028),
        ((3, 4, 4, 5), 3.2262960725627816),
        ((3, 4, 5, 5), 1.6363415163017399),
    ],
}
EXECUTORS = {
    "eager": "eager",
    "dataflow": "dataflow",
    "vectorized": "vectorized",
    "sharded-inline": functools.partial(ShardedExecutor, shards=2, pool=None, min_rows=0),
}


@pytest.mark.parametrize("executor", sorted(EXECUTORS))
@pytest.mark.parametrize("name", sorted(PARENT_RELEASES))
def test_flat_record_plans_release_what_the_nested_ones_did(name, executor):
    session = PrivacySession(seed=7, executor=EXECUTORS[executor])
    edges = protect_graph(session, Graph(EDGES))
    released = list(NAMED_QUERIES[name](edges).noisy_count(0.5).items())
    expected = PARENT_RELEASES[name]
    assert [record for record, _ in released] == [record for record, _ in expected]
    for (_, value), (_, want) in zip(released, expected):
        assert value == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("name", sorted(PARENT_RELEASES))
def test_flat_record_plans_are_specs_all_the_way_down(name):
    """Nothing but specs (and ``sorted_degrees``) crosses the shard wire."""
    session = PrivacySession(seed=7)
    edges = protect_graph(session, Graph(EDGES))
    query = NAMED_QUERIES[name](edges)
    expected_uses = {"tbd": 9, "jdd": 4, "sbd": 12}[name]
    assert query.source_uses() == {"edges": expected_uses}
    rebuilt = decode_plan(encode_plan(query.plan))
    environment = {"edges": session._datasets["edges"]}
    assert (
        VectorizedExecutor(environment).evaluate(rebuilt).to_dict()
        == VectorizedExecutor(environment).evaluate(query.plan).to_dict()
    )


def test_explain_marks_only_the_final_select_of_tbd_as_per_record():
    session = PrivacySession(executor="vectorized")
    text = analyses.triangles_by_degree_query(protect_graph(session, Graph(EDGES))).explain()
    nodes = text.split("\n\nsources:")[0].splitlines()
    assert nodes[0] == "SelectPlan @vectorized (per-record)"
    assert not any("(per-record)" in line for line in nodes[1:])
    jdd = analyses.joint_degree_query(protect_graph(session, Graph(EDGES), name="again"))
    assert "(per-record)" not in jdd.explain()
    # A plain function shows, with the sharing tag after the annotation ...
    shown = protect_graph(session, Graph(EDGES), name="other").select(sorted_degrees)
    assert shown.intersect(shown).explain().splitlines()[1] == (
        "  SelectPlan @vectorized (per-record)  [#1]"
    )
    # ... and other executors print what they always printed.
    eager = PrivacySession(executor="eager")
    plain = analyses.triangles_by_degree_query(protect_graph(eager, Graph(EDGES)))
    assert "(per-record)" not in plain.explain()
