"""Scoring synthetic datasets against released measurements (Section 4.1–4.2).

Probabilistic inference needs the exact probabilistic relationship between a
candidate dataset ``A`` and the released observations ``m``: for Laplace-noise
measurements, ``Pr[m | A] ∝ exp(−ε · ‖Q(A) − m‖₁)``, so the (log) posterior of
``A`` under a flat prior is ``−Σ_i ε_i · ‖Q_i(A) − m_i‖₁`` up to a constant.
The MCMC scoring function raises this to the power ``pow`` to sharpen the
distribution into a near-greedy search, as the paper does with
``pow = 10,000``.

:class:`MeasurementScore` maintains one measurement's L1 distance
incrementally by listening to the dataflow collector of its query;
:class:`ScoreTracker` aggregates several measurements into the scalar log
score used in the acceptance test.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..core.aggregation import NoisyCountResult
from ..dataflow.engine import DataflowEngine
from ..dataflow.nodes import OutputCollector
from ..exceptions import ReproError

__all__ = ["MeasurementScore", "ScoreTracker"]


class MeasurementScore:
    """Incrementally maintained ``‖Q(A) − m‖₁`` for one released measurement.

    The distance is taken over the *fixed* set of released values: the records
    the measurement had observed when inference started (the support of the
    query on the protected data, plus anything the analyst explicitly asked
    about).  Candidate-output records outside that set carry no likelihood
    term — the platform never released anything about them — which keeps the
    score a well-defined function of the candidate dataset throughout the
    MCMC run.

    Parameters
    ----------
    measurement:
        The released :class:`NoisyCountResult`; its memoised noisy values play
        the role of ``m``.
    collector:
        The dataflow collector materialising ``Q(A)`` for the current
        synthetic dataset ``A``.  The score subscribes to the collector and
        updates the distance in O(changed records) per MCMC step.
    """

    def __init__(self, measurement: NoisyCountResult, collector: OutputCollector) -> None:
        if measurement.plan is None:
            raise ReproError(
                "measurement carries no query plan; it cannot drive inference"
            )
        self.measurement = measurement
        self._targets = measurement.to_dict()
        self._collector = collector
        self._distance = self._full_distance()
        collector.add_listener(self._on_change)

    def _full_distance(self) -> float:
        total = 0.0
        for record, target in self._targets.items():
            total += abs(self._collector.weight(record) - target)
        return total

    def _on_change(self, old: Mapping, delta: Mapping) -> None:
        undo = self._collector.undo.cells
        if undo is not None:
            # The distance is state a rejected step must get back exactly: the
            # attribute is logged as a cell of the instance dict (see UndoLog).
            undo.append((self.__dict__, "_distance", self._distance))
        targets, weight = self._targets, self._collector.weight
        for record, old_weight in old.items():
            target = targets.get(record)
            if target is None:
                continue
            self._distance += abs(weight(record) - target) - abs(old_weight - target)

    @property
    def distance(self) -> float:
        """Current value of ``‖Q(A) − m‖₁`` over the released records."""
        return self._distance

    @property
    def targets(self) -> dict:
        """The released (record, noisy value) pairs the score is fit against."""
        return dict(self._targets)

    def resynchronize(self) -> float:
        """Recompute the distance from scratch (guards against float drift)."""
        self._distance = self._full_distance()
        return self._distance


class ScoreTracker:
    """Aggregate log score over several measurements.

    ``log_score = −pow · Σ_i ε_i · ‖Q_i(A) − m_i‖₁``

    The tracker owns one :class:`MeasurementScore` per measurement, all wired
    to collectors of the same :class:`~repro.dataflow.engine.DataflowEngine`.
    Measurements over the *same plan object* share one collector (and
    therefore one incremental evaluation of the query) while keeping separate
    residual terms — measuring a plan twice must not double the per-step
    work, only the likelihood terms.
    """

    def __init__(
        self,
        engine: DataflowEngine,
        measurements: Iterable[NoisyCountResult],
        pow_: float = 1.0,
    ) -> None:
        if pow_ <= 0:
            raise ValueError("pow_ must be positive")
        self.pow = float(pow_)
        self.scores: list[MeasurementScore] = []
        collectors: dict[int, object] = {}
        for measurement in measurements:
            collector = collectors.get(id(measurement.plan))
            if collector is None:
                collector = engine.collector(measurement.plan)
                collectors[id(measurement.plan)] = collector
            self.scores.append(MeasurementScore(measurement, collector))
        #: Distinct query evaluations maintained per step (after plan dedup).
        self.unique_plan_count = len(collectors)

    def log_score(self) -> float:
        """The current (unnormalised) log posterior raised to ``pow``."""
        total = 0.0
        for score in self.scores:
            total += score.measurement.epsilon * score.distance
        return -self.pow * total

    def distances(self) -> dict[str, float]:
        """Current per-measurement L1 distances, keyed by query name."""
        report: dict[str, float] = {}
        for index, score in enumerate(self.scores):
            name = score.measurement.query_name or f"measurement_{index}"
            report[name] = score.distance
        return report

    def resynchronize(self) -> None:
        """Recompute every distance from scratch."""
        for score in self.scores:
            score.resynchronize()
