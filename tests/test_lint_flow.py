"""Tests for the privacy taint analysis (rule R010).

The fixture pair ``bad_taint`` / ``good_taint`` in
``tests/lint_fixtures/flow`` plants four distinct taint-to-sink paths (log,
exception message, pickle, HTTP response body), each laundered through
renames or helper calls; the assertions are exact line sets, so any false
negative fails the build.  The clean twin releases the same values through
the sanctioned channels and must stay silent.  ``bad_reply`` /
``good_reply`` do the same for the transport's one-write reply,
``core/bad_weight_leak`` for weights printed, logged or raised, and
``dataflow/bad_output`` for the dataflow engine's release path.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint import analyze_flow

FIXTURES = Path(__file__).parent / "lint_fixtures" / "flow"
REPRO = Path(__file__).parent.parent / "src" / "repro"


def _lines(name: str, package: str = "service") -> list[tuple[str, int]]:
    issues = analyze_flow([FIXTURES / package / f"{name}.py"], FIXTURES)
    return [(issue.rule, issue.line) for issue in issues]


def test_taint_fixture_catches_all_four_planted_leaks():
    found = _lines("bad_taint")
    assert [rule for rule, _ in found] == ["R010", "R010", "R010", "R010"]
    # log via helper, raise, pickle, wfile.write — one each, at the
    # planted sites.
    assert [line for _, line in found] == [29, 34, 38, 43]


def test_taint_clean_twin_is_clean():
    assert _lines("good_taint") == []


def test_a_protected_value_in_the_one_write_reply_is_caught():
    # The transport's reply: status line, headers and JSON body in one
    # self.wfile.write, the payload handed in through a helper method.
    assert _lines("bad_reply") == [("R010", 25)]
    assert _lines("good_reply") == []


def test_weights_printed_logged_or_raised_are_caught():
    # print, a logger, an f-string exception, and a copy into a local
    # whose name says nothing about weights before it is logged.
    assert _lines("bad_weight_leak", "core") == [
        ("R010", 18), ("R010", 22), ("R010", 26), ("R010", 31),
    ]


def test_weight_leak_clean_twin_is_clean():
    assert _lines("good_weight_leak", "core") == []


def test_dataflow_is_a_release_package():
    assert _lines("bad_output", "dataflow") == [("R010", 20)]
    assert _lines("good_output", "dataflow") == []


def test_a_protected_constructor_argument_is_protected(tmp_path):
    assert _analyze(
        tmp_path,
        """
        class WeightedDataset:
            def __init__(self, weights, tolerance):
                for record, weight in weights.items():
                    if weight != weight:
                        raise ValueError(f"bad weight {weight} for {record!r}")
                if tolerance < 0:
                    raise ValueError(f"bad tolerance {tolerance}")
        """,
    ) == [6]


def test_repro_package_has_no_taint_findings():
    assert analyze_flow([REPRO], REPRO) == []


# ----------------------------------------------------------------------
# Targeted semantics on synthetic modules
# ----------------------------------------------------------------------
def _analyze(tmp_path: Path, source: str) -> list[int]:
    module = tmp_path / "service" / "case.py"
    module.parent.mkdir(exist_ok=True)
    module.write_text(textwrap.dedent(source), encoding="utf-8")
    return [issue.line for issue in analyze_flow([tmp_path], tmp_path)]


def test_interprocedural_return_taint(tmp_path):
    assert _analyze(
        tmp_path,
        """
        class WeightedDataset:
            pass

        def passthrough(value):
            return value

        def leak(dataset: WeightedDataset, log):
            log.info(passthrough(dataset.weight("x")))
        """,
    ) == [9]


def test_param_leak_reported_at_call_site(tmp_path):
    assert _analyze(
        tmp_path,
        """
        class WeightedDataset:
            pass

        def _reply(log, payload):
            log.info(payload)

        def handler(dataset: WeightedDataset, log):
            _reply(log, dataset.total_weight())
        """,
    ) == [9]


def test_sanctioned_release_kills_taint(tmp_path):
    assert _analyze(
        tmp_path,
        """
        class WeightedDataset:
            pass

        class NoisyCountResult:
            def __init__(self, value):
                self.value = value

        def release(dataset: WeightedDataset, log):
            log.info("%r", NoisyCountResult(dataset.total_weight()))
            log.info("%d", len(dataset.records()))
        """,
    ) == []


def test_held_exact_answer_is_protected_but_its_count_is_not(tmp_path):
    assert _analyze(
        tmp_path,
        """
        class ExactAnswer:
            pass

        def stats(answer: ExactAnswer, log):
            log.info("%d held records", len(answer.records))
            log.info("%r", answer.records)
            log.info("%r", answer.weights)
        """,
    ) == [7, 8]


def test_dataset_object_at_sink_is_flagged(tmp_path):
    assert _analyze(
        tmp_path,
        """
        class WeightedDataset:
            pass

        def dump(dataset: WeightedDataset, log):
            log.info("state: %r", dataset)
        """,
    ) == [6]


def test_sinks_outside_release_packages_are_ignored(tmp_path):
    module = tmp_path / "scripts" / "case.py"
    module.parent.mkdir()
    module.write_text(
        textwrap.dedent(
            """
            class WeightedDataset:
                pass

            def debug(dataset: WeightedDataset, log):
                log.info(dataset.total_weight())
            """
        ),
        encoding="utf-8",
    )
    assert analyze_flow([tmp_path], tmp_path) == []


def test_suppression_comment_is_honoured(tmp_path):
    assert _analyze(
        tmp_path,
        """
        class WeightedDataset:
            pass

        def sanctioned_debug(dataset: WeightedDataset, log):
            log.info(dataset.total_weight())  # lint: disable=R010
        """,
    ) == []


def test_column_backed_results_and_the_token_memo_are_protected(tmp_path):
    assert _analyze(
        tmp_path,
        """
        class ColumnBackedDataset:
            pass

        class Interner:
            pass

        def debug(result: ColumnBackedDataset, interner: Interner, codes, log):
            log.info("%d rows", len(result))
            log.info("%r", result._columnar)
            log.info("%r", result.in_canonical_order())
            log.info("%r", interner.tokens(codes))
            raise ValueError(f"bad token {interner._tokens[0]}")
        """,
    ) == [10, 11, 12, 13]
