"""Tests for the static plan checker: stability bounds (the core fold every
charge reads), ε-verification of explicit charges, portability, the ``explain(..., verify=True)`` rendering — and the
repo-is-clean sweep the CI lint job depends on."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analyses import (
    joint_degree_query,
    squares_by_degree_query,
    triangles_by_degree_query,
    triangles_by_intersect_query,
    wedges_query,
)
from repro.columnar.specs import Field
from repro.core import PrivacySession
from repro.core.plan import stability_bounds
from repro.exceptions import PlanError
from repro.lint import (
    DEFAULT_RULES,
    check_portability,
    format_bounds,
    lint_paths,
    verify_epsilon,
    verify_plan,
)

SRC = Path(__file__).parent.parent / "src"


def _edges():
    return PrivacySession().protect("edges", [(0, 1), (1, 2)])


def _swap(edge):
    return (edge[1], edge[0])


# ---------------------------------------------------------------------------
# stability bounds
# ---------------------------------------------------------------------------


def test_unary_chain_is_one_stable():
    edges = _edges()
    query = edges.select(_swap).where(_swap).distinct().shave()
    assert stability_bounds(query.plan) == {"edges": 1.0}


def test_self_join_doubles_the_bound():
    edges = _edges()
    query = edges.join(edges, left_key=Field(0), right_key=Field(0))
    assert stability_bounds(query.plan) == {"edges": 2.0}


def test_down_scale_tightens_the_bound():
    edges = _edges()
    query = edges.join(edges, left_key=Field(0), right_key=Field(0)).down_scale(0.25)
    assert stability_bounds(query.plan) == {"edges": 0.5}


def test_binary_sums_across_distinct_sources():
    session = PrivacySession()
    left = session.protect("left", [(0, 1)])
    right = session.protect("right", [(0, 2)])
    query = left.union(right).concat(left)
    assert stability_bounds(query.plan) == {"left": 2.0, "right": 1.0}


@pytest.mark.parametrize(
    "builder, expected",
    [
        (joint_degree_query, 4.0),
        (triangles_by_degree_query, 9.0),
        (triangles_by_intersect_query, 4.0),
        (wedges_query, 2.0),
        (squares_by_degree_query, 12.0),
    ],
)
def test_paper_query_bounds_match_the_stated_edge_uses(builder, expected):
    # The paper states these edge-use counts (Sections 3.2-3.4, 5.3); with
    # no DownScale the bound is exactly the path-counting multiplicity.
    query = builder(_edges())
    assert stability_bounds(query.plan) == {"edges": expected}
    assert query.source_uses() == {"edges": int(expected)}


def test_unknown_node_type_is_refused():
    class MysteryPlan:
        """Not one of the node types with a proven stability constant."""

    with pytest.raises(PlanError, match="MysteryPlan"):
        stability_bounds(MysteryPlan())


def test_format_bounds():
    assert format_bounds({"edges": 9.0}) == "edges<=9"
    assert format_bounds({"b": 0.5, "a": 2.0}) == "a<=2, b<=0.5"


# ---------------------------------------------------------------------------
# ε-verification
# ---------------------------------------------------------------------------


def test_default_charge_matches_for_plain_plans():
    query = triangles_by_degree_query(_edges())
    assert verify_epsilon(query.plan, 0.1, charged=query.privacy_cost(0.1)) == []


def test_undercharge_is_an_error():
    edges = _edges()
    query = edges.join(edges, left_key=Field(0), right_key=Field(0))
    issues = verify_epsilon(query.plan, 0.1, charged={"edges": 0.1})
    assert [issue.kind for issue in issues] == ["epsilon-mismatch"]
    assert issues[0].severity == "error"
    assert "under-protected" in issues[0].message


def test_down_scale_charge_is_the_tightened_bound():
    edges = _edges()
    query = edges.join(edges, left_key=Field(0), right_key=Field(0)).down_scale(0.5)
    # Two paths to the source, halved: the runtime charges 1*eps, not 2*eps.
    assert query.privacy_cost(0.1) == {"edges": 0.1}
    assert verify_epsilon(query.plan, 0.1, charged=query.privacy_cost(0.1)) == []
    # A bigger charge is sound and not flagged.
    assert verify_epsilon(query.plan, 0.1, charged={"edges": 0.2}) == []


def test_charge_against_absent_source_is_flagged():
    query = _edges().select(_swap)
    issues = verify_epsilon(
        query.plan, 0.1, charged={"edges": 0.1, "ghosts": 0.1}
    )
    assert [issue.kind for issue in issues] == ["epsilon-mismatch"]
    assert issues[0].node == "ghosts"
    assert issues[0].severity == "warning"


def test_verify_plan_bundles_everything():
    query = triangles_by_intersect_query(_edges())
    report = verify_plan(query.plan, epsilon=0.1)
    assert report.ok
    assert report.bounds == {"edges": 4.0}
    assert id(query.plan) in report.node_bounds


def test_verify_plan_flags_hand_built_mismatch():
    edges = _edges()
    query = edges.join(edges, left_key=Field(0), right_key=Field(0))
    report = verify_plan(query.plan, epsilon=0.1, charged={"edges": 0.1})
    assert not report.ok
    assert any(issue.kind == "epsilon-mismatch" for issue in report.issues)


# ---------------------------------------------------------------------------
# portability
# ---------------------------------------------------------------------------


def test_spec_plans_are_portable():
    for builder in (triangles_by_degree_query, squares_by_degree_query):
        assert check_portability(builder(_edges()).plan) == []


def test_lambda_plans_are_reported():
    query = _edges().select(lambda edge: edge)
    issues = check_portability(query.plan)
    assert len(issues) == 1
    assert issues[0].kind == "unportable"
    assert "mapper" in issues[0].node
    assert "pickled" in issues[0].message


def test_unportable_plan_fails_verify_plan():
    report = verify_plan(_edges().where(lambda edge: True).plan)
    assert not report.ok


# ---------------------------------------------------------------------------
# explain(..., verify=True)
# ---------------------------------------------------------------------------


def test_explain_verify_annotates_nodes_and_footer():
    query = triangles_by_degree_query(_edges())
    text = query.explain(0.1, verify=True)
    assert "[stability: edges<=9]" in text
    assert "static verification:" in text
    assert "  edges: x9  (measurement at eps=0.1 charges 0.9)" in text
    assert "charged 0.9" not in text
    assert "portability: OK" in text


def test_explain_verify_footer_charges_the_down_scaled_bound():
    edges = _edges()
    query = edges.join(edges, left_key=Field(0), right_key=Field(0)).down_scale(0.25)
    text = query.explain(0.1, verify=True)
    assert "  edges: x0.5  (measurement at eps=0.1 charges 0.05)" in text
    assert "DownScale(factor=0.25) @eager  [stability: edges<=0.5]" in text
    assert "conservative" not in text


def test_explain_verify_reports_unportable_lambda():
    text = _edges().select(lambda edge: edge).explain(verify=True)
    assert "not portable" in text


def test_explain_without_verify_is_unchanged():
    query = triangles_by_degree_query(_edges())
    text = query.explain(0.1)
    assert "static verification:" not in text
    assert "[stability:" not in text


# ---------------------------------------------------------------------------
# the repo's own code is lint-clean (what CI's `repro lint` run enforces)
# ---------------------------------------------------------------------------


def test_repro_package_is_lint_clean():
    issues = lint_paths([SRC / "repro"], DEFAULT_RULES, root=SRC / "repro")
    assert issues == [], "\n".join(issue.render() for issue in issues)
