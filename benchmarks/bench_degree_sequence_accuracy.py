"""Ablation (Section 3.1): degree-sequence accuracy of the post-processing.

Paper claim: measuring both the degree sequence and its CCDF through wPINQ and
jointly fitting a monotone staircase to the two noisy views is competitive
with (typically better than) isotonic regression on a single noisy sequence —
and, unlike Hay et al., does not require the number of nodes to be public.
"""

from __future__ import annotations

from conftest import emit
from repro.experiments import degree_sequence_ablation, format_table


def test_degree_sequence_postprocessing(config):
    rows = degree_sequence_ablation(config, epsilon=max(config.epsilon, 0.2))
    emit(
        format_table(
            ["approach", "mean |error| per rank"],
            rows,
            title="Section 3.1 ablation — degree sequence accuracy at equal total privacy cost",
        )
    )
    errors = dict(rows)
    joint = errors["wPINQ CCDF + sequence path fit"]
    iso_only = errors["wPINQ sequence only + isotonic"]
    hay = errors["Hay et al. (public n, isotonic)"]
    # Shape: the joint path fit is at least as accurate as isotonic regression
    # on the wPINQ sequence alone, and competitive with the public-n baseline.
    assert joint <= iso_only * 1.1
    assert joint <= hay * 1.5
