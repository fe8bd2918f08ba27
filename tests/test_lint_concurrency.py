"""Tests for the static lock-order analysis (rules R008, R009).

The fixture pairs in ``tests/lint_fixtures/concurrency`` are
known-violation files with clean twins; the assertions here are exact
counts, so a regression that stops detecting a planted deadlock (a false
negative) fails loudly rather than shrinking a ">= 1" check.  The cycle
detector is additionally exercised with hypothesis over random
acquisition graphs, with and without planted cycles.
"""

from __future__ import annotations

from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.lint import build_concurrency_analysis, find_cycles, render_lock_report

FIXTURES = Path(__file__).parent / "lint_fixtures" / "concurrency"
REPRO = Path(__file__).parent.parent / "src" / "repro"


def _rules(name: str) -> list[tuple[str, int]]:
    issues = build_concurrency_analysis([FIXTURES / f"{name}.py"], FIXTURES).issues
    return [(issue.rule, issue.line) for issue in issues]


# ----------------------------------------------------------------------
# Fixture pairs: exact counts, zero false negatives
# ----------------------------------------------------------------------
def test_cycle_fixture_detects_planted_deadlock():
    found = _rules("bad_cycle")
    # The cycle's inverted edge, in ``backward``; `repro locks` names the cycle.
    assert [rule for rule, _ in found] == ["R008"]


def test_cycle_clean_twin_is_clean():
    assert _rules("good_cycle") == []


def test_order_fixture_detects_inversion_and_undeclared_lock():
    # The unannotated declaration and the inversion site.
    assert _rules("bad_order") == [("R008", 13), ("R008", 18)]


def test_order_clean_twin_is_clean():
    assert _rules("good_order") == []


def test_blocking_fixture_detects_direct_and_transitive_sleep():
    found = _rules("bad_blocking")
    # The third is an http.client reply awaited under the lock; the last two
    # are a socket client's request sent and reply read under it.
    assert [rule for rule, _ in found] == ["R009"] * 5


def test_blocking_clean_twin_is_clean():
    assert _rules("good_blocking") == []


def test_whole_fixture_directory_counts():
    issues = build_concurrency_analysis([FIXTURES], FIXTURES).issues
    by_rule: dict[str, int] = {}
    for issue in issues:
        by_rule[issue.rule] = by_rule.get(issue.rule, 0) + 1
    assert by_rule == {"R008": 3, "R009": 5}


# ----------------------------------------------------------------------
# The repo itself must be clean, and its hierarchy a DAG
# ----------------------------------------------------------------------
def test_repro_package_has_no_concurrency_findings():
    assert build_concurrency_analysis([REPRO], REPRO).issues == []


def test_repro_lock_report_is_a_dag():
    analysis = build_concurrency_analysis([REPRO], REPRO)
    report = render_lock_report(analysis)
    assert "No cycles" in report
    # The load-bearing locks of the serving stack are all declared.
    for key in (
        "service.state",
        "core.ledger",
        "persistence.wal",
        "shard.pool.shutdown",
    ):
        assert key in report


def test_lock_levels_match_observed_edges():
    analysis = build_concurrency_analysis([REPRO], REPRO)
    decls = analysis.registry.decls
    for source, targets in analysis.edges.items():
        for target in targets:
            assert decls[source].level <= decls[target].level, (source, target)


# ----------------------------------------------------------------------
# Cycle detector: directed property testing
# ----------------------------------------------------------------------
def _random_dag(draw) -> dict[str, list[str]]:
    count = draw(st.integers(min_value=2, max_value=12))
    nodes = [f"n{index}" for index in range(count)]
    adjacency: dict[str, list[str]] = {node: [] for node in nodes}
    # Edges only ever point from a lower index to a higher one: acyclic by
    # construction, like a well-ordered lock hierarchy.
    for low in range(count):
        for high in range(low + 1, count):
            if draw(st.booleans()):
                adjacency[nodes[low]].append(nodes[high])
    return adjacency


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_find_cycles_never_reports_a_dag(data):
    adjacency = _random_dag(data.draw)
    assert find_cycles(adjacency) == []


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_find_cycles_catches_every_planted_cycle(data):
    adjacency = _random_dag(data.draw)
    nodes = sorted(adjacency)
    # Plant a cycle over a random subset (possibly a self-loop).
    size = data.draw(st.integers(min_value=1, max_value=len(nodes)))
    members = data.draw(
        st.permutations(nodes).map(lambda order: order[:size])
    )
    for position, node in enumerate(members):
        adjacency[node].append(members[(position + 1) % len(members)])
    cycles = find_cycles(adjacency)
    assert cycles, f"planted cycle over {members} went undetected"
    cycle_nodes = {node for cycle in cycles for node in cycle}
    assert set(members) <= cycle_nodes


def test_find_cycles_reports_self_loop():
    assert find_cycles({"a": ["a"], "b": []}) == [["a"]]


def test_find_cycles_deterministic_order():
    adjacency = {"a": ["b"], "b": ["a"], "c": ["d"], "d": ["c"]}
    assert find_cycles(adjacency) == find_cycles(adjacency)
    assert len(find_cycles(adjacency)) == 2
