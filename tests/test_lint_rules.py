"""Fixture-driven tests for the per-module lint rules (R001, R005).

Every rule has a fixture with *known* violations and a known-clean twin;
the assertions pin the exact rule codes and counts, so a rule that stops
firing (a false negative) or starts over-firing (a false positive) fails
here before it reaches CI's repo-wide ``repro lint`` run.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from repro.lint import DEFAULT_RULES, LintError, format_issues, lint_paths
from repro.lint.engine import iter_python_files

FIXTURES = Path(__file__).parent / "lint_fixtures"


def run_lint(relative: str):
    return lint_paths([FIXTURES / relative], DEFAULT_RULES, root=FIXTURES)


def rule_counts(relative: str) -> Counter:
    return Counter(issue.rule for issue in run_lint(relative))


# ---------------------------------------------------------------------------
# one bad fixture + one clean twin per rule — zero false negatives, zero
# false positives
# ---------------------------------------------------------------------------

BAD_FIXTURES = [
    ("core/bad_rng.py", "R001", 7),
    ("analyses/bad_lambda.py", "R005", 6),
    ("analyses/bad_closure.py", "R005", 3),
]

CLEAN_FIXTURES = [
    "core/good_rng.py",
    "analyses/good_specs.py",
    "analyses/good_closure.py",
]


@pytest.mark.parametrize("relative, rule, count", BAD_FIXTURES)
def test_bad_fixture_caught(relative, rule, count):
    counts = rule_counts(relative)
    assert counts[rule] == count, format_issues(run_lint(relative))
    # The fixture is single-purpose: no *other* rule may fire on it.
    assert set(counts) == {rule}


@pytest.mark.parametrize("relative", CLEAN_FIXTURES)
def test_clean_twin_is_clean(relative):
    assert run_lint(relative) == [], format_issues(run_lint(relative))


# ---------------------------------------------------------------------------
# release-package gating: R001 fires only inside release packages
# ---------------------------------------------------------------------------


def test_release_rules_gated_by_package(tmp_path):
    text = (FIXTURES / "core" / "bad_rng.py").read_text(encoding="utf-8")
    outside = tmp_path / "experiments"
    outside.mkdir()
    (outside / "scratch.py").write_text(text, encoding="utf-8")
    assert lint_paths([outside], DEFAULT_RULES, root=tmp_path) == []
    inside = tmp_path / "persistence"
    inside.mkdir()
    (inside / "scratch.py").write_text(text, encoding="utf-8")
    issues = lint_paths([inside], DEFAULT_RULES, root=tmp_path)
    assert {issue.rule for issue in issues} == {"R001"}


# ---------------------------------------------------------------------------
# suppression comments, syntax errors, file discovery
# ---------------------------------------------------------------------------


def test_suppression_comments_silence_findings():
    assert run_lint("core/suppressed.py") == []


def test_suppression_is_per_line(tmp_path):
    package = tmp_path / "core"
    package.mkdir()
    source = package / "module.py"
    source.write_text(
        "from numpy.random import default_rng\n"
        "first = default_rng()  # lint: disable=R001\n"
        "second = default_rng()\n",
        encoding="utf-8",
    )
    issues = lint_paths([package], DEFAULT_RULES, root=tmp_path)
    assert [issue.line for issue in issues] == [3]


def test_syntax_error_is_a_finding_not_a_crash():
    issues = run_lint("core/broken_syntax.py")
    assert [issue.rule for issue in issues] == ["E001"]
    assert "syntax error" in issues[0].message


def test_iter_python_files_rejects_non_python(tmp_path):
    with pytest.raises(LintError):
        list(iter_python_files([FIXTURES / "README.md"]))


def test_full_fixture_tree_totals():
    issues = lint_paths([FIXTURES], DEFAULT_RULES, root=FIXTURES)
    counts = Counter(issue.rule for issue in issues)
    assert counts == {
        "R001": 7,
        "R005": 9,
        "E001": 1,
    }
    # Deterministic ordering: path, then line, then column.
    keys = [(issue.path, issue.line, issue.col) for issue in issues]
    assert keys == sorted(keys)
