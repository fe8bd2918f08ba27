"""Generic Metropolis–Hastings machinery (Section 4.2).

The paper's pseudo-code is a dozen lines: propose a new state from a random
walk, accept with probability ``min(1, Score(next)/Score(state))``.  This
module provides that loop in two forms:

* :class:`MetropolisHastings` — a small, state-copying implementation for
  arbitrary states and scoring functions.  It is used for unit tests, for the
  record-replacement walk over plain weighted datasets, and as executable
  documentation of the algorithm.
* :class:`IncrementalMetropolisHastings` — the delta-based variant the graph
  synthesiser uses: proposals are expressed as invertible deltas against a
  :class:`~repro.dataflow.engine.DataflowEngine`, so each step costs time
  proportional to the amount of changed intermediate data rather than a full
  query re-execution (Section 4.3).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..dataflow.delta import Delta
from ..dataflow.engine import DataflowEngine
from .scoring import ScoreTracker

__all__ = [
    "MCMCStepRecord",
    "MCMCResult",
    "MetropolisHastings",
    "IncrementalMetropolisHastings",
]


@dataclass
class MCMCStepRecord:
    """One sampled point of an MCMC trajectory."""

    step: int
    log_score: float
    accepted_so_far: int
    metrics: dict[str, float] = field(default_factory=dict)


@dataclass
class MCMCResult:
    """Summary of one ``run()`` call.

    ``steps`` and ``accepted`` both count that call alone, so
    ``acceptance_rate`` stays a rate when a sampler is run in several chunks;
    the sampler's own ``steps`` / ``accepted`` attributes (and a trajectory's
    ``accepted_so_far``) are cumulative.
    """

    steps: int
    accepted: int
    log_score: float
    elapsed_seconds: float
    trajectory: list[MCMCStepRecord] = field(default_factory=list)

    @property
    def acceptance_rate(self) -> float:
        """Fraction of proposals accepted."""
        return self.accepted / self.steps if self.steps else 0.0

    @property
    def steps_per_second(self) -> float:
        """Throughput of the run (the quantity Figure 6 reports)."""
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.steps / self.elapsed_seconds


class MetropolisHastings:
    """Plain Metropolis–Hastings over copies of an arbitrary state.

    Parameters
    ----------
    initial_state:
        Starting state (any object).
    propose:
        ``propose(state, rng) -> new_state``; must not mutate the input.
    log_score:
        ``log_score(state) -> float``; larger is better.  Using log scores
        avoids overflow for the sharp distributions (large ``pow``) the paper
        uses.
    rng:
        Seed or generator for the accept/reject coin flips.
    """

    def __init__(
        self,
        initial_state: Any,
        propose: Callable[[Any, np.random.Generator], Any],
        log_score: Callable[[Any], float],
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.state = initial_state
        self._propose = propose
        self._log_score = log_score
        self._rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.current_log_score = float(log_score(initial_state))
        self.accepted = 0
        self.steps = 0

    def step(self) -> bool:
        """Perform one proposal; returns True if it was accepted."""
        candidate = self._propose(self.state, self._rng)
        candidate_score = float(self._log_score(candidate))
        self.steps += 1
        if _accept(candidate_score - self.current_log_score, self._rng):
            self.state = candidate
            self.current_log_score = candidate_score
            self.accepted += 1
            return True
        return False

    def run(
        self,
        steps: int,
        record_every: int | None = None,
        metrics: dict[str, Callable[[Any], float]] | None = None,
    ) -> MCMCResult:
        """Run ``steps`` proposals, optionally recording a trajectory."""
        trajectory: list[MCMCStepRecord] = []
        accepted_before = self.accepted
        started = time.perf_counter()
        for index in range(1, steps + 1):
            self.step()
            if record_every and (index % record_every == 0 or index == steps):
                trajectory.append(
                    MCMCStepRecord(
                        step=index,
                        log_score=self.current_log_score,
                        accepted_so_far=self.accepted,
                        metrics=_evaluate_metrics(metrics, self.state),
                    )
                )
        elapsed = time.perf_counter() - started
        return MCMCResult(
            steps=steps,
            accepted=self.accepted - accepted_before,
            log_score=self.current_log_score,
            elapsed_seconds=elapsed,
            trajectory=trajectory,
        )


class IncrementalMetropolisHastings:
    """Metropolis–Hastings whose proposals are deltas against a dataflow engine.

    The proposal generator returns ``(delta_by_source, on_accept, on_reject)``
    where ``delta_by_source`` maps source names to weight deltas.  A step is
    ``engine.begin()``, one ``engine.push`` per source, a read of the
    tracker's log score, then ``engine.commit()`` or ``engine.rollback()`` —
    the paper's "apply, evaluate, maybe undo".  How a rollback is done is the
    engine's business: :class:`~repro.dataflow.engine.DataflowEngine` restores
    the cells the push overwrote from its undo log (no second propagation),
    the columnar score engines push the negated delta.
    """

    def __init__(
        self,
        engine: DataflowEngine,
        tracker: ScoreTracker,
        propose: Callable[[np.random.Generator], tuple[dict[str, Delta], Callable[[], None], Callable[[], None]] | None],
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.engine = engine
        self.tracker = tracker
        self._propose = propose
        self._rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.current_log_score = tracker.log_score()
        self.accepted = 0
        self.steps = 0

    def step(self) -> bool:
        """Propose, apply, and accept or roll back one move."""
        proposal = self._propose(self._rng)
        self.steps += 1
        if proposal is None:
            # The walk had nothing valid to propose (e.g. the sampled edge
            # pair cannot be swapped); count it as a rejected step.
            return False
        deltas, on_accept, on_reject = proposal
        engine = self.engine
        engine.begin()
        for source, delta in deltas.items():
            engine.push(source, delta)
        candidate_score = self.tracker.log_score()
        if _accept(candidate_score - self.current_log_score, self._rng):
            engine.commit()
            self.current_log_score = candidate_score
            self.accepted += 1
            on_accept()
            return True
        engine.rollback()
        on_reject()
        return False

    def run(
        self,
        steps: int,
        record_every: int | None = None,
        metrics: dict[str, Callable[[], float]] | None = None,
    ) -> MCMCResult:
        """Run ``steps`` proposals, optionally recording a trajectory.

        ``metrics`` callables take no arguments: they are expected to close
        over whatever public state (e.g. the synthetic graph) they report on.
        """
        trajectory: list[MCMCStepRecord] = []
        accepted_at_start = self.accepted
        started = time.perf_counter()
        for index in range(1, steps + 1):
            self.step()
            if record_every and (index % record_every == 0 or index == steps):
                trajectory.append(
                    MCMCStepRecord(
                        step=index,
                        log_score=self.current_log_score,
                        accepted_so_far=self.accepted,
                        metrics={
                            name: float(fn()) for name, fn in (metrics or {}).items()
                        },
                    )
                )
        elapsed = time.perf_counter() - started
        return MCMCResult(
            steps=steps,
            accepted=self.accepted - accepted_at_start,
            log_score=self.current_log_score,
            elapsed_seconds=elapsed,
            trajectory=trajectory,
        )


def _accept(log_ratio: float, rng: np.random.Generator) -> bool:
    """The Metropolis acceptance rule in log space.

    One uniform is drawn per decision, *unconditionally*: scoring backends can
    disagree on a degenerate ratio by float dust (``0.0`` vs ``-1e-13``), and
    a draw taken only on the downhill branch would then desynchronize the
    shared RNG stream — after which the chains propose different moves and
    the cross-backend decision-equality guarantee silently dies.  With the
    unconditional draw the stream position is identical on every backend, and
    a dust-sized ratio difference flips a decision only with probability of
    the same dust-sized order.
    """
    draw = float(rng.random())
    if log_ratio >= 0:
        return True
    return draw < math.exp(max(log_ratio, -745.0))


def _evaluate_metrics(
    metrics: dict[str, Callable[[Any], float]] | None, state: Any
) -> dict[str, float]:
    if not metrics:
        return {}
    return {name: float(fn(state)) for name, fn in metrics.items()}
