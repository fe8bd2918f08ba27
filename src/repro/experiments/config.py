"""Configuration shared by the paper experiments (``repro <experiment>`` and
the ``benchmarks/bench_*.py`` suite that asserts their shapes).

The paper's experiments run on graphs with up to a million edges and MCMC
chains of 5×10⁵–5×10⁶ steps on a 64 GB machine.  The reproduction targets a
laptop/CI budget, so every experiment accepts an :class:`ExperimentConfig`
whose defaults are small, and scales up transparently when the environment
variables below are set:

* ``REPRO_BENCH_SCALE`` — multiplier on graph sizes (default 1.0 applies the
  per-experiment default scale).
* ``REPRO_BENCH_STEPS`` — multiplier on MCMC step counts.
* ``REPRO_BENCH_SEED`` — base random seed.
* ``REPRO_BENCH_EPSILON`` / ``REPRO_BENCH_POW`` — ε per measurement and the
  MCMC score-sharpening exponent.

These five are the only ``REPRO_BENCH_*`` variables; nothing here times the
platform (that is ``benchmarks/e2e/``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

__all__ = ["ExperimentConfig", "default_config"]


def _env_float(name: str, default: float) -> float:
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        return float(value)
    except ValueError:
        return default


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        return default


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments.

    ``graph_scale`` multiplies the per-experiment default stand-in scale, and
    ``step_scale`` multiplies MCMC step counts, so the same benchmark code can
    run as a quick smoke test or as a long faithful reproduction.
    """

    graph_scale: float = 1.0
    step_scale: float = 1.0
    epsilon: float = 0.1
    pow_: float = 10_000.0
    seed: int = 20140506  # the paper's "last updated" date, for determinism

    def scaled_graph(self, base_scale: float) -> float:
        """Apply the global multiplier to an experiment's base graph scale."""
        return base_scale * self.graph_scale

    def scaled_steps(self, base_steps: int) -> int:
        """Apply the global multiplier to an experiment's base step count."""
        return max(1, int(round(base_steps * self.step_scale)))

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """Return a copy with some fields replaced."""
        return replace(self, **overrides)


def default_config() -> ExperimentConfig:
    """The configuration selected by the current environment variables."""
    return ExperimentConfig(
        graph_scale=_env_float("REPRO_BENCH_SCALE", 1.0),
        step_scale=_env_float("REPRO_BENCH_STEPS", 1.0),
        epsilon=_env_float("REPRO_BENCH_EPSILON", 0.1),
        pow_=_env_float("REPRO_BENCH_POW", 10_000.0),
        seed=_env_int("REPRO_BENCH_SEED", 20140506),
    )
