"""The seeded mutation corpus must still apply to the tree it mutates."""

from __future__ import annotations

import importlib.util
from pathlib import Path

RUNNER = Path(__file__).resolve().parent / "mutations" / "run.py"


def test_corpus_applies_to_the_tree():
    # run.py's own check: every record's `old` text occurs exactly once in its
    # file, so an edit to a mutated line fails here and not only in the CI
    # corpus step.
    spec = importlib.util.spec_from_file_location("mutation_runner", RUNNER)
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    runner.check_corpus()
