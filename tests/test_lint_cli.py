"""End-to-end tests for ``repro lint`` and ``repro explain --verify``."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

FIXTURES = Path(__file__).parent / "lint_fixtures"


def test_lint_default_target_is_clean(capsys):
    # A bare `repro lint` runs every checker (R001-R010) over the package
    # and verifies every named plan.
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "clean" in out
    assert "plan tbd" in out


def test_lint_bad_file_fails_with_findings(capsys):
    assert main(["lint", str(FIXTURES / "analyses" / "bad_lambda.py")]) == 1
    out = capsys.readouterr().out
    assert "R005" in out
    assert "bad_lambda.py" in out


def test_lint_file_inside_repro_keeps_release_gating(tmp_path, capsys):
    # A single-file target inside the installed package is linted with the
    # package-relative path, so the release-only rules still apply.
    import repro

    package = Path(repro.__file__).resolve().parent
    assert main(["lint", str(package / "core" / "laplace.py")]) == 0
    assert "clean" in capsys.readouterr().out


def test_lint_directory_target(capsys):
    assert main(["lint", str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    # Findings of every checker, from several packages; a path argument
    # skips the named-plan verification.
    for rule in (
        "R001", "R005", "R008", "R009", "R010", "E001",
    ):
        assert rule in out
    assert "plan tbd" not in out


def test_lint_missing_path_is_a_usage_error(capsys):
    assert main(["lint", str(FIXTURES / "does_not_exist.py")]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_lint_plans_verifies_named_queries(capsys):
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "plan tbd" in out
    assert "edges<=9" in out
    assert "plan sbd" in out
    assert "edges<=12" in out
    assert "FAIL" not in out


def test_explain_verify_prints_static_verification(capsys):
    assert main(["explain", "tbd", "--verify", "--epsilon", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "static verification:" in out
    assert "stability bound: edges<=9" in out
    assert "portability: OK" in out


def test_explain_without_verify_is_unchanged(capsys):
    assert main(["explain", "tbd", "--epsilon", "0.1"]) == 0
    assert "static verification:" not in capsys.readouterr().out


# ----------------------------------------------------------------------
# One command: no checker is behind a flag.  The lock-order and taint
# analyses once ran only under ``--concurrency`` / ``--flow``; the tests
# named after those flags now pin that a bare ``repro lint`` runs them.
# ----------------------------------------------------------------------
def _spy(monkeypatch, name: str) -> list[int]:
    """Count the findings of ``repro.lint.<name>`` on each call of it."""
    import repro.lint

    real = getattr(repro.lint, name)
    counts: list[int] = []

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        issues = getattr(result, "issues", result)
        counts.append(len(issues))
        return result

    monkeypatch.setattr(repro.lint, name, spy)
    return counts


def test_lint_concurrency_flag_default_target_is_clean(monkeypatch, capsys):
    counts = _spy(monkeypatch, "build_concurrency_analysis")
    assert main(["lint"]) == 0
    assert "clean" in capsys.readouterr().out
    assert counts == [0]


def test_lint_flow_flag_default_target_is_clean(monkeypatch, capsys):
    counts = _spy(monkeypatch, "analyze_flow")
    assert main(["lint"]) == 0
    assert "clean" in capsys.readouterr().out
    assert counts == [0]


def test_lint_concurrency_flag_reports_fixture_findings(capsys):
    assert main(["lint", str(FIXTURES / "concurrency")]) == 1
    out = capsys.readouterr().out
    for rule in ("R008", "R009"):
        assert rule in out


def test_lint_flow_flag_reports_fixture_findings(capsys):
    assert main(["lint", str(FIXTURES / "flow")]) == 1
    out = capsys.readouterr().out
    assert "R010" in out
    assert "bad_taint.py" in out


@pytest.mark.parametrize(
    "flag",
    [
        "--strict", "--concurrency", "--flow", "--plans",
        "--baseline=b.json", "--write-baseline",
    ],
)
def test_removed_lint_flags_are_usage_errors(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["lint", flag])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_locks_prints_hierarchy_and_dag(capsys):
    assert main(["locks"]) == 0
    out = capsys.readouterr().out
    assert "Lock hierarchy" in out
    assert "core.budget" in out
    assert "service.registry" in out
    assert "No cycles" in out


def test_locks_exits_nonzero_on_cycle(capsys):
    assert main(["locks", str(FIXTURES / "concurrency" / "bad_cycle.py")]) == 1
    out = capsys.readouterr().out
    assert "cyc.a" in out


def test_locks_missing_path_is_a_usage_error(capsys):
    assert main(["locks", str(FIXTURES / "nope")]) == 2
    assert "does not exist" in capsys.readouterr().err
