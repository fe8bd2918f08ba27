"""MCMC proposal re-scoring through the columnar kernels (Section 4.2–4.3).

Two columnar scoring engines share the mutable array-backed source state:

* :class:`ColumnarScoreEngine` — the *full-pass* vectorized path: the
  synthetic source lives as a columnar weight vector that proposals update
  incrementally in place, and each score re-runs the (deduplicated)
  measurement plans through the NumPy kernels over the current vectors.  Per
  step that is a full — but vectorized — pass: low constants, no operator
  state, full-pass asymptotics.
* :class:`IncrementalColumnarScoreEngine` — the *incremental* columnar path:
  measurement plans compile into the stateful array-node DAG of
  :mod:`repro.columnar.incremental`, each proposal's delta propagates as
  small code/weight arrays touching only the changed intermediate data
  (Section 4.3), and per-measurement **bin vectors** hold ``Q(A)`` at the
  released records so the L1 residual ``‖Q(A) − m‖₁`` updates in O(touched
  bins) per step instead of being recomputed.

Both engines play both roles of the
:class:`~repro.inference.mcmc.IncrementalMetropolisHastings` pair: they are
the ``engine`` (``begin()``, ``push(source, delta)``, ``commit()`` /
``rollback()`` — a rollback pushes the step's deltas back negated) and the
``tracker`` (``log_score()``, ``distances()``).  The ``backend=`` switch on
:class:`~repro.inference.synthesizer.GraphSynthesizer` selects between them
and the dict-based dataflow engine.
"""

from __future__ import annotations

import copy
from typing import Any, Iterable, Mapping

import numpy as np

from ..columnar.dataset import ColumnarDataset, encode_query_rows
from ..columnar.executor import VectorizedExecutor
from ..columnar.incremental import DeltaNode, IncrementalGraph, _row_keys
from ..columnar.interning import global_interner
from ..core.aggregation import NoisyCountResult
from ..core.dataset import WeightedDataset
from ..dataflow.delta import negate
from ..exceptions import ReproError

__all__ = [
    "MutableColumnarSource",
    "ColumnarScoreEngine",
    "MeasurementSink",
    "IncrementalColumnarScoreEngine",
]


class MutableColumnarSource:
    """A source dataset as amortised-growth code/weight arrays.

    Rows are unique records; applying a delta adjusts the weight vector in
    place (appending rows for never-seen records, with capacity doubling), so
    an MCMC step costs O(records in the delta) regardless of dataset size.
    :meth:`snapshot` exposes the current state as a
    :class:`~repro.columnar.dataset.ColumnarDataset` of array *views* — valid
    until the next :meth:`apply`, which is exactly the evaluate-then-decide
    lifetime of an MCMC scoring pass.

    The row-oriented half of the API (:meth:`ensure_row`, :meth:`apply_rows`,
    :meth:`codes_for_rows`) lets scoring engines cache the record→row
    encoding once per record: steady-state proposals that revisit known
    records never touch the interner or re-encode anything.
    """

    def __init__(
        self,
        initial: WeightedDataset,
        tolerance: float | None = None,
    ) -> None:
        base = ColumnarDataset.from_weighted(initial)
        # Inherit the source's tolerance by default so the liveness filter of
        # snapshot() agrees with what the dataflow backend would keep.
        self.tolerance = float(
            initial.tolerance if tolerance is None else tolerance
        )
        self._arity = base.arity
        self._size = len(base)
        capacity = max(16, 2 * self._size)
        width = 1 if self._arity is None else self._arity
        self._columns = [np.empty(capacity, dtype=np.int64) for _ in range(width)]
        for buffer, column in zip(self._columns, base.columns):
            buffer[: self._size] = column
        self._weights = np.zeros(capacity, dtype=np.float64)
        self._weights[: self._size] = base.weights
        self._rows: dict[Any, int] = {
            record: row for row, record in enumerate(base.records())
        }

    def __len__(self) -> int:
        """Number of rows ever materialised (including currently-zero ones)."""
        return self._size

    @property
    def arity(self) -> int | None:
        """Current layout: per-field columns (``k``) or opaque (``None``)."""
        return self._arity

    # ------------------------------------------------------------------
    def _grow(self) -> None:
        capacity = 2 * self._weights.shape[0]
        self._columns = [
            np.concatenate([column, np.empty(column.shape[0], dtype=np.int64)])
            for column in self._columns
        ]
        self._weights = np.concatenate(
            [self._weights, np.zeros(self._weights.shape[0], dtype=np.float64)]
        )
        assert self._weights.shape[0] == capacity

    def _encode(self, record: Any) -> tuple[int, ...]:
        interner = global_interner()
        if self._arity is None:
            return (interner.code(record),)
        if type(record) is tuple and len(record) == self._arity:
            return tuple(interner.code(field) for field in record)
        # A record that does not fit the decomposed layout forces the whole
        # source into opaque form once; later records reuse that layout.
        self._rebuild_opaque()
        return (interner.code(record),)

    def _rebuild_opaque(self) -> None:
        interner = global_interner()
        rows = sorted(self._rows.items(), key=lambda item: item[1])
        codes = interner.codes([record for record, _ in rows])
        column = np.empty(self._weights.shape[0], dtype=np.int64)
        column[: self._size] = codes
        self._columns = [column]
        self._arity = None

    # ------------------------------------------------------------------
    def ensure_row(self, record: Any) -> int:
        """Row index of ``record``, materialising it (at weight zero) once.

        This is the only place a record is ever dictionary-encoded; callers
        caching the returned row do zero interner work on later visits.
        """
        row = self._rows.get(record)
        if row is None:
            codes = self._encode(record)
            if self._size >= self._weights.shape[0]:
                self._grow()
            row = self._size
            self._size += 1
            for buffer, code in zip(self._columns, codes):
                buffer[row] = code
            self._weights[row] = 0.0
            self._rows[record] = row
        return row

    def apply_rows(self, rows: np.ndarray, changes: np.ndarray) -> None:
        """Fold per-row weight changes in (rows must be distinct)."""
        self._weights[rows] += changes

    def codes_for_rows(self, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        """The code columns of the given rows, in the current layout."""
        return tuple(column[: self._size][rows] for column in self._columns)

    def apply(self, delta: Mapping[Any, float]) -> None:
        """Fold a weight delta into the vectors (the incremental update)."""
        for record, change in delta.items():
            row = self.ensure_row(record)
            self._weights[row] += float(change)

    # ------------------------------------------------------------------
    def snapshot(self) -> ColumnarDataset:
        """The current state as a columnar dataset (views; read immediately)."""
        weights = self._weights[: self._size]
        columns = [column[: self._size] for column in self._columns]
        live = np.abs(weights) > self.tolerance
        if not live.all():
            weights = weights[live]
            columns = [column[live] for column in columns]
        return ColumnarDataset(
            tuple(columns), weights, self._arity, self.tolerance, assume_unique=True
        )

    def to_weighted(self) -> WeightedDataset:
        """Decode the current state (tests and diagnostics)."""
        # Decoded here and now (a copy is a plain dataset of the rows): the
        # snapshot's arrays are views that the next push writes through.
        return copy.copy(self.snapshot().to_weighted())


class _ColumnarEngineBase:
    """Shared plumbing of the two columnar scoring engines: validated
    measurements, deduplicated plans, mutable sources and the cached
    record→row encoding used by :meth:`push`."""

    def __init__(
        self,
        measurements: Iterable[NoisyCountResult],
        initial: Mapping[str, WeightedDataset],
        pow_: float = 1.0,
    ) -> None:
        if pow_ <= 0:
            raise ValueError("pow_ must be positive")
        self.pow = float(pow_)
        self.measurements = list(measurements)
        if not self.measurements:
            raise ValueError("at least one measurement is required")
        for measurement in self.measurements:
            if measurement.plan is None:
                raise ReproError(
                    "measurement carries no query plan; it cannot drive inference"
                )
        # Deduplicate identical plan objects: a plan measured twice costs one
        # evaluation per step; each measurement keeps its own residual term.
        self._unique_plans: list = []
        self._plan_slots: list[int] = []
        slot_by_id: dict[int, int] = {}
        for measurement in self.measurements:
            slot = slot_by_id.get(id(measurement.plan))
            if slot is None:
                slot = len(self._unique_plans)
                slot_by_id[id(measurement.plan)] = slot
                self._unique_plans.append(measurement.plan)
            self._plan_slots.append(slot)
        self._sources = {
            name: MutableColumnarSource(dataset) for name, dataset in initial.items()
        }
        self._row_caches: dict[str, dict[Any, int]] = {
            name: {} for name in self._sources
        }
        #: ``(source, delta)`` of every push of the open step; None outside one.
        self._step: list[tuple[str, Mapping[Any, float]]] | None = None

    # ------------------------------------------------------------------
    def _encode_delta(
        self, source: str, delta: Mapping[Any, float]
    ) -> tuple[MutableColumnarSource, np.ndarray, np.ndarray]:
        try:
            target = self._sources[source]
        except KeyError as exc:
            raise ReproError(f"no mutable source named {source!r}") from exc
        cache = self._row_caches[source]
        count = len(delta)
        rows = np.empty(count, dtype=np.int64)
        changes = np.empty(count, dtype=np.float64)
        for index, (record, change) in enumerate(delta.items()):
            row = cache.get(record)
            if row is None:
                row = target.ensure_row(record)
                cache[record] = row
            rows[index] = row
            changes[index] = change
        return target, rows, changes

    def state_entry_count(self) -> int:
        """Rows materialised across sources (plus operator state, if any)."""
        return sum(len(source) for source in self._sources.values())

    def source_dataset(self, name: str) -> WeightedDataset:
        """Decode a source's current state (tests and diagnostics)."""
        return self._sources[name].to_weighted()

    # ------------------------------------------------------------------
    def log_score(self) -> float:
        """``−pow · Σ_i ε_i · ‖Q_i(A) − m_i‖₁`` for the current vectors."""
        total = 0.0
        for measurement, distance in zip(
            self.measurements, self._measurement_distances()
        ):
            total += measurement.epsilon * distance
        return -self.pow * total

    def distances(self) -> dict[str, float]:
        """Current per-measurement L1 distances, keyed by query name."""
        report: dict[str, float] = {}
        for index, (measurement, distance) in enumerate(
            zip(self.measurements, self._measurement_distances())
        ):
            name = measurement.query_name or f"measurement_{index}"
            report[name] = distance
        return report

    def _measurement_distances(self) -> list[float]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Engine half (what proposals talk to)
    # ------------------------------------------------------------------
    def push(self, source: str, delta: Mapping[Any, float]) -> None:
        """Apply a proposal's weight delta to one source."""
        if self._step is not None:
            self._step.append((source, delta))
        self._apply(source, delta)

    def _apply(self, source: str, delta: Mapping[Any, float]) -> None:
        raise NotImplementedError

    def begin(self) -> None:
        """Open a step: pushes are remembered until ``commit``/``rollback``."""
        if self._step is not None:
            raise ReproError("a step is already open")
        self._step = []

    def commit(self) -> None:
        """Keep everything pushed since :meth:`begin`."""
        if self._step is None:
            raise ReproError("no step is open")
        self._step = None

    def rollback(self) -> None:
        """Undo the open step by pushing its deltas back negated."""
        if self._step is None:
            raise ReproError("no step is open")
        pushed, self._step = self._step, None
        for source, delta in reversed(pushed):
            self.push(source, negate(delta))


class ColumnarScoreEngine(_ColumnarEngineBase):
    """Engine + tracker pair scoring measurements via full vectorized passes.

    Drop-in for the ``(DataflowEngine, ScoreTracker)`` pair consumed by
    :class:`~repro.inference.mcmc.IncrementalMetropolisHastings`: proposals
    arrive as ``push(source, delta)`` weight-vector updates, and
    ``log_score()`` evaluates every *unique* measurement plan in one
    vectorized executor batch against the current vectors, scoring
    ``−pow · Σ_i ε_i · ‖Q_i(A) − m_i‖₁`` over each measurement's released
    records (their query encodings cached across steps).
    """

    def __init__(
        self,
        measurements: Iterable[NoisyCountResult],
        initial: Mapping[str, WeightedDataset],
        pow_: float = 1.0,
    ) -> None:
        super().__init__(measurements, initial, pow_)
        self._environment: dict[str, ColumnarDataset] = {}
        self._executor = VectorizedExecutor(self._environment)
        # Per measurement: the released records and their noisy values, in a
        # fixed order so every scoring pass probes the same vector; the
        # encoded query matrix is cached per output layout.
        self._target_records: list[list[Any]] = []
        self._target_values: list[np.ndarray] = []
        self._target_queries: list[dict[int | None, np.ndarray]] = []
        for measurement in self.measurements:
            targets = measurement.to_dict()
            self._target_records.append(list(targets))
            self._target_values.append(
                np.fromiter(targets.values(), dtype=np.float64, count=len(targets))
            )
            self._target_queries.append({})

    # ------------------------------------------------------------------
    # Engine half (what proposals talk to)
    # ------------------------------------------------------------------
    def _apply(self, source: str, delta: Mapping[Any, float]) -> None:
        """Fold the delta into one source vector."""
        target, rows, changes = self._encode_delta(source, delta)
        target.apply_rows(rows, changes)

    # ------------------------------------------------------------------
    # Tracker half (what the acceptance test reads)
    # ------------------------------------------------------------------
    def _queries_for(self, index: int, output: ColumnarDataset) -> np.ndarray:
        cached = self._target_queries[index].get(output.arity)
        if cached is None or cached.shape[1] != len(output.columns):
            cached = encode_query_rows(
                self._target_records[index], len(output.columns), output.arity
            )
            self._target_queries[index][output.arity] = cached
        return cached

    def _measurement_distances(self) -> list[float]:
        for name, source in self._sources.items():
            self._environment[name] = source.snapshot()
        # Stay columnar end to end: unique plans evaluate once per batch, and
        # outputs are probed for the fixed released records with a vectorized
        # lookup over the cached query encodings instead of decoding every
        # output record into Python objects on each MCMC step.
        outputs = self._executor.evaluate_columnar(self._unique_plans)
        distances: list[float] = []
        for index, (slot, values) in enumerate(
            zip(self._plan_slots, self._target_values)
        ):
            output = outputs[slot]
            probed = output.weights_for_codes(self._queries_for(index, output))
            distances.append(float(np.abs(probed - values).sum()))
        return distances

    def evaluations_per_step(self) -> int:
        """How many plan evaluations one scoring pass performs (after
        deduplication of identical plan objects)."""
        return len(self._unique_plans)

    def resynchronize(self) -> None:
        """No-op: every score is computed from the current vectors exactly."""
        return None


class MeasurementSink(DeltaNode):
    """Terminal node of the incremental DAG holding one measurement's bins.

    ``bins`` is the cached ``Q(A)`` weight vector over the measurement's
    released records; absorbed deltas update only the touched bins and fold
    the change of ``|Q(A)(r) − m(r)|`` into the running ``residual``.
    """

    def __init__(self, measurement: NoisyCountResult) -> None:
        super().__init__(f"sink:{measurement.query_name or 'measurement'}")
        targets = measurement.to_dict()
        self._records = list(targets)
        self.targets = np.fromiter(
            targets.values(), dtype=np.float64, count=len(targets)
        )
        self.bins = np.zeros(len(targets), dtype=np.float64)
        self.residual = float(np.abs(self.targets).sum())
        interner = global_interner()
        self._index: dict[tuple[int, ...], int] = {}
        self._by_record: dict[Any, int] = {}
        self._ambiguous = False
        for position, record in enumerate(self._records):
            self._by_record[record] = position
            keys = [(interner.code(record),)]
            if type(record) is tuple and len(record) >= 1:
                keys.append(tuple(interner.code(field) for field in record))
            for key in keys:
                existing = self._index.get(key)
                if existing is not None and existing != position:
                    # A record and a tuple wrapping it alias to the same code
                    # key; fall back to record-object matching for this sink.
                    self._ambiguous = True
                self._index[key] = position

    # ------------------------------------------------------------------
    def _positions(self, delta_keys: list[tuple[int, ...]], records: Any) -> list:
        if not self._ambiguous:
            index = self._index
            return [index.get(key) for key in delta_keys]
        by_record = self._by_record
        return [by_record.get(record) for record in records()]

    def on_delta(self, delta: ColumnarDataset, port: int = 0) -> None:
        positions = self._positions(_row_keys(delta.columns), delta.records)
        for position, change in zip(positions, delta.weights.tolist()):
            if position is None:
                continue
            old = float(self.bins[position])
            new = old + change
            self.bins[position] = new
            target = float(self.targets[position])
            self.residual += abs(new - target) - abs(old - target)

    # ------------------------------------------------------------------
    def resynchronize(self, output: ColumnarDataset) -> None:
        """Reset bins and residual from a freshly evaluated output."""
        self.bins = output.weights_for(self._records)
        self.residual = float(np.abs(self.bins - self.targets).sum())

    def state_entries(self) -> int:
        return int(self.bins.shape[0])


class IncrementalColumnarScoreEngine(_ColumnarEngineBase):
    """Engine + tracker pair with incremental columnar scoring (Section 4.3).

    Measurement plans compile into one shared
    :class:`~repro.columnar.incremental.IncrementalGraph`; a proposal's
    ``push`` encodes the delta through the cached record→row map, folds it
    into the mutable source vectors and propagates it as delta arrays, after
    which ``log_score()`` is a constant-time read of the maintained residuals.
    """

    def __init__(
        self,
        measurements: Iterable[NoisyCountResult],
        initial: Mapping[str, WeightedDataset],
        pow_: float = 1.0,
    ) -> None:
        super().__init__(measurements, initial, pow_)
        self._graph = IncrementalGraph()
        self._sinks: list[MeasurementSink] = []
        for measurement in self.measurements:
            sink = MeasurementSink(measurement)
            # Identical plan objects share every operator node; each sink
            # keeps its own residual term.
            self._graph.attach(measurement.plan, sink)
            self._sinks.append(sink)
        # Load the initial synthetic data by pushing it as a delta from empty
        # (exactly how the dataflow engine initialises).
        for name, source in self._sources.items():
            self._graph.push(name, source.snapshot())

    # ------------------------------------------------------------------
    # Engine half (what proposals talk to)
    # ------------------------------------------------------------------
    def _apply(self, source: str, delta: Mapping[Any, float]) -> None:
        """Fold the delta into the source and propagate it through the DAG."""
        target, rows, changes = self._encode_delta(source, delta)
        target.apply_rows(rows, changes)
        self._graph.push(
            source,
            ColumnarDataset(
                target.codes_for_rows(rows),
                changes,
                target.arity,
                target.tolerance,
                assume_unique=True,
            ),
        )

    def state_entry_count(self) -> int:
        """Source rows plus weighted entries held by operator state."""
        return super().state_entry_count() + self._graph.state_entry_count()

    # ------------------------------------------------------------------
    # Tracker half (what the acceptance test reads)
    # ------------------------------------------------------------------
    def _measurement_distances(self) -> list[float]:
        return [sink.residual for sink in self._sinks]

    def resynchronize(self) -> None:
        """Recompute every bin vector from a fresh full vectorized pass.

        Operator state floats drift exactly like the dataflow engine's; the
        bins (which the score reads) are re-anchored here against the current
        source vectors.
        """
        environment = {
            name: source.snapshot() for name, source in self._sources.items()
        }
        outputs = VectorizedExecutor(environment).evaluate_columnar(
            self._unique_plans
        )
        for sink, slot in zip(self._sinks, self._plan_slots):
            sink.resynchronize(outputs[slot])
