"""The paper suite: one test per record of ``repro.experiments.EXPERIMENTS``.

Each test runs the record exactly as ``repro <experiment>`` does, reports its
table and fails with the text of every paper claim that does not hold.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.experiments import EXPERIMENTS, default_config


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_paper(name):
    experiment, config = EXPERIMENTS[name], default_config()
    result = experiment.run(config)
    emit(experiment.render(result))
    assert not experiment.claims(result, config)
