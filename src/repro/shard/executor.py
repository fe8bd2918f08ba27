"""`ShardedExecutor`: partition → per-shard kernels in workers → merge.

The sixth execution backend behind the :class:`~repro.core.executor
.Executor` protocol (``create_executor("sharded")``).  For each plan it
decides, by a bottom-up *shardability analysis*, whether the whole chain
can run independently on contiguous key-range shards of its sources:

======================  =============================================
operator                sharding contract
======================  =============================================
Where, DownScale        record-wise and linear: always shardable,
                        preserve record-disjointness
Select                  linear: always shardable; preserves
                        disjointness only for a bijective
                        :class:`~repro.columnar.specs.Permute` of the
                        full record (tracked via source arity)
SelectMany, Concat,     linear: shardable, output records overlap
Except                  across shards (merged by summation)
Shave, Distinct         *nonlinear* per-record functions of a
                        record's total weight: shardable only while
                        shards are still record-disjoint
GroupBy, Join, Union,   not shardable (cross-record/non-linear):
Intersect               single-process vectorized fallback
======================  =============================================

Disjoint chains merge by order-preserving concatenation — bit-identical
to the unsharded kernels, always.  Chains that lose disjointness merge by
per-record summation — bit-identical on exactly-representable weights
(the wPINQ integer/dyadic data model), within float rounding otherwise;
see :mod:`repro.shard.dataset` for the full argument.  Everything else
falls back to this executor's inner :class:`~repro.columnar.executor
.VectorizedExecutor`, which shares the environment and source encodings,
so the fallback is merely "one shard".

Two execution modes share the analysis and the merge path:

* **pool mode** — shards ship to a :class:`~repro.shard.pool.ProcessPool`
  through shared-memory segments; workers hold a
  :class:`~repro.shard.interner.ShardInterner` fed by incremental frozen
  deltas and return extension atoms for deterministic reconciliation.
  Plans must be portable (:mod:`repro.shard.plan`); a plan that is not —
  or any pool-level failure — degrades to the vectorized fallback rather
  than failing the measurement.
* **inline mode** (``pool=None``) — shards run sequentially in-process,
  each under a borrowed-snapshot :class:`ShardInterner` installed via
  :func:`~repro.columnar.interning.use_interner`.  Same partition, same
  namespaces, same reconciliation, no processes: the mode the property
  tests drive hard, and the correctness twin of pool mode.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..columnar.dataset import ColumnarDataset
from ..columnar.executor import VectorizedExecutor
from ..columnar.interning import global_interner, use_interner
from ..columnar.specs import Permute
from ..core.dataset import WeightedDataset
from ..core.plan import PLAN_FOR_OP, Plan
from ..resilience.deadline import current_deadline
from ..resilience.policy import CircuitBreaker
from .dataset import ShardedColumnarDataset, concat_merge, sum_merge
from .interner import ShardInterner, merge_extensions, remap_codes
from .memory import SegmentDescriptor, attach_segment, pack_arrays
from .plan import PortablePlan, UnportablePlanError, decode_plan, encode_plan
from .pool import PoolError, PoolTask, ProcessPool

__all__ = ["ShardedExecutor", "DEFAULT_MIN_SHARD_ROWS", "default_shard_count"]

#: Below this many source rows a plan is not worth sharding (IPC and
#: partition overhead dominate); overridable per executor and via env.
DEFAULT_MIN_SHARD_ROWS = 4096


def default_shard_count() -> int:
    """Shard/worker count: ``REPRO_SHARD_PROCESSES`` or a bounded CPU fit."""
    env = os.environ.get("REPRO_SHARD_PROCESSES")
    if env:
        return max(1, int(env))
    return max(2, min(4, os.cpu_count() or 1))


class _ChainInfo:
    """Result of the shardability analysis for one plan node."""

    __slots__ = ("shardable", "disjoint", "arity")

    def __init__(self, shardable: bool, disjoint: bool, arity: int | None) -> None:
        self.shardable = shardable
        self.disjoint = disjoint
        self.arity = arity


_NOT_SHARDABLE = _ChainInfo(False, False, None)


class ShardedExecutor:
    """Process-parallel sharded execution with a vectorized fallback.

    Parameters
    ----------
    environment:
        Source name → dataset mapping, as for every executor.
    shards:
        Number of partitions (and pool workers); defaults to
        :func:`default_shard_count`.
    pool:
        ``"auto"`` (default) lazily spins up a :class:`ProcessPool` of
        ``shards`` workers on first sharded evaluation; ``None`` selects
        inline mode; a pre-built :class:`ProcessPool` is used as-is (and
        not shut down by :meth:`close`).
    min_rows:
        Source-row threshold below which plans fall back to the inner
        vectorized executor (``REPRO_SHARD_MIN_ROWS`` overrides the
        default).
    breaker:
        The :class:`CircuitBreaker` guarding pool mode.  While open, pool
        dispatch is skipped entirely and shardable plans run on the inner
        vectorized executor — bit-identical, just slower.  Defaults to a
        3-failure / 30-second breaker.
    """

    def __init__(
        self,
        environment: Mapping[str, Any],
        shards: int | None = None,
        pool: ProcessPool | str | None = "auto",
        min_rows: int | None = None,
        start_method: str | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self._environment = environment
        self.shards = shards if shards is not None else default_shard_count()
        if self.shards < 1:
            raise ValueError("shards must be a positive integer")
        if min_rows is None:
            min_rows = int(os.environ.get("REPRO_SHARD_MIN_ROWS", DEFAULT_MIN_SHARD_ROWS))
        self.min_rows = min_rows
        self._vectorized = VectorizedExecutor(environment)
        self._pool_mode = pool
        self._pool: ProcessPool | None = pool if isinstance(pool, ProcessPool) else None
        self._owns_pool = False
        self._start_method = start_method
        self._portable: dict[int, tuple[Plan, PortablePlan]] = {}
        self.pool_breaker = breaker if breaker is not None else CircuitBreaker(
            threshold=3, reset_after=30.0, name="shard-pool"
        )
        #: Called with a reason string whenever pool mode degrades to the
        #: inline vectorized path (the registry wires this to the audit log).
        self.on_degrade: Callable[[str], None] | None = None

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    @property
    def inline(self) -> bool:
        """True when shards execute in-process (no worker pool)."""
        return self._pool_mode is None

    def _ensure_pool(self) -> ProcessPool | None:
        if self._pool_mode is None:
            return None
        if self._pool is None:
            self._pool = ProcessPool(
                workers=self.shards,
                start_method=self._start_method,
                initializer=_shard_worker_init,
            )
            self._owns_pool = True
        return self._pool

    def close(self) -> None:
        """Shut down an owned pool (idempotent; a borrowed pool is left up)."""
        if self._pool is not None and self._owns_pool:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Shardability analysis
    # ------------------------------------------------------------------
    def _source_arity(self, name: str) -> int | None:
        dataset = self._environment.get(name)
        if isinstance(dataset, ColumnarDataset):
            return dataset.arity
        if isinstance(dataset, WeightedDataset):
            return self._vectorized.dataset(name).arity
        return None

    def _analyze(self, node: Plan, children: list[_ChainInfo]) -> _ChainInfo:
        """One node's sharding contract (module docstring), as a ``Plan.fold`` visit."""
        op = node.op
        if PLAN_FOR_OP.get(op) is not type(node):
            # No wire form (a partition part's closure never ships to workers).
            return _NOT_SHARDABLE
        if op == "source":
            return _ChainInfo(True, True, self._source_arity(node.name))
        if not all(child.shardable for child in children):
            return _NOT_SHARDABLE
        first = children[0]
        if op in ("where", "down_scale"):
            return first
        if op == "select":
            if (
                isinstance(node.mapper, Permute)
                and first.arity is not None
                and node.mapper.is_permutation_of(first.arity)
            ):
                # A bijection on records: disjointness survives.
                return first
            return _ChainInfo(True, False, None)
        if op == "select_many":
            return _ChainInfo(True, False, None)
        if op in ("shave", "distinct") and first.disjoint:
            # Both are functions of a record's *total* weight: sound only
            # while that weight is wholly within one shard.
            return _ChainInfo(True, True, 2 if op == "shave" else first.arity)
        if op in ("concat", "except_"):
            second = children[1]
            arity = first.arity if first.arity == second.arity else None
            return _ChainInfo(True, False, arity)
        # GroupBy, Join, Union, Intersect and any future transformation: no
        # sharding contract — vectorized fallback.
        return _NOT_SHARDABLE

    def _should_shard(self, plan: Plan) -> _ChainInfo | None:
        if self.shards < 2:
            return None
        names = plan.source_names()
        if not names:
            return None
        info = plan.fold(self._analyze)
        if not info.shardable:
            return None
        total_rows = 0
        for name in names:
            dataset = self._environment.get(name)
            if dataset is None:
                return None  # let the fallback raise the canonical error
            total_rows += len(dataset)
        if total_rows < self.min_rows:
            return None
        return info

    def backend_for(self, plan: Plan) -> str:
        """``"sharded"`` when the chain shards, else the fallback's answer."""
        if self._should_shard(plan) is not None:
            return "sharded"
        return self._vectorized.backend_for(plan)

    # ------------------------------------------------------------------
    # Executor protocol
    # ------------------------------------------------------------------
    def evaluate(self, plan: Plan) -> WeightedDataset:
        return self.evaluate_many([plan])[0]

    def evaluate_many(self, plans: Sequence[Plan]) -> list[WeightedDataset]:
        """Shardable plans run sharded; the rest go through the fallback
        as *one* batch so cross-plan sub-plan sharing is preserved."""
        routed: list[tuple[int, Plan, _ChainInfo | None]] = [
            (position, plan, self._should_shard(plan))
            for position, plan in enumerate(plans)
        ]
        results: list[WeightedDataset | None] = [None] * len(plans)
        fallback = [(position, plan) for position, plan, info in routed if info is None]
        if fallback:
            evaluated = self._vectorized.evaluate_many([plan for _, plan in fallback])
            for (position, _), value in zip(fallback, evaluated):
                results[position] = value
        for position, plan, info in routed:
            if info is not None:
                results[position] = self._evaluate_sharded(plan, info)
        return results  # type: ignore[return-value]

    def reset(self) -> None:
        """Drop fallback caches and plan encodings (the pool stays warm)."""
        self._vectorized.reset()
        self._portable = {}

    # ------------------------------------------------------------------
    # Sharded evaluation
    # ------------------------------------------------------------------
    def _partitions(self, plan: Plan) -> dict[str, ShardedColumnarDataset]:
        return {
            name: ShardedColumnarDataset.partition(
                self._vectorized.dataset(name), self.shards
            )
            for name in sorted(plan.source_names())
        }

    def _evaluate_sharded(self, plan: Plan, info: _ChainInfo) -> WeightedDataset:
        """Partition, run the shards (pool or inline), merge.  The output is in
        the coordinator's codes and returned still in columns, like the
        fallback's: nothing is decoded here, in any mode or degrade path."""
        partitions = self._partitions(plan)
        if self.inline:
            shard_outputs = self._run_inline(plan, partitions)
        else:
            task_timeout = None
            deadline = current_deadline()
            if deadline is not None:
                task_timeout = deadline.remaining()
                if task_timeout <= 0.0:
                    # The request's deadline is already gone: skip dispatch
                    # and produce the (bit-identical) answer inline — by this
                    # point the budget is charged, so the answer must exist.
                    self._degraded("deadline expired before pool dispatch")
                    return self._vectorized.evaluate(plan)
            if not self.pool_breaker.allow():
                self._degraded("pool circuit open")
                return self._vectorized.evaluate(plan)
            try:
                shard_outputs = self._run_pooled(plan, partitions, task_timeout)
            except UnportablePlanError:
                # Not a pool failure: the plan simply has no sharding
                # contract.  Does not count against the breaker.
                return self._vectorized.evaluate(plan)
            except PoolError as exc:
                # Pool-level failure: degrade to the single-process backend —
                # slower, never wrong — and charge the breaker.
                self.pool_breaker.record_failure()
                self._degraded(f"pool failure: {exc}")
                return self._vectorized.evaluate(plan)
            else:
                self.pool_breaker.record_success()
        merged = concat_merge(shard_outputs) if info.disjoint else sum_merge(shard_outputs)
        return merged.to_weighted()

    def _degraded(self, reason: str) -> None:
        callback = self.on_degrade
        if callback is not None:
            try:
                callback(reason)
            except Exception:  # pragma: no cover - observability must not fail
                pass

    # -- inline mode ----------------------------------------------------
    def _run_inline(
        self, plan: Plan, partitions: dict[str, ShardedColumnarDataset]
    ) -> list[ColumnarDataset]:
        outputs: list[ColumnarDataset] = []
        interner = global_interner()
        for shard_index in range(self.shards):
            shard_interner = ShardInterner(shard_index, borrow=interner)
            environment = {
                name: sharded.shards[shard_index] for name, sharded in partitions.items()
            }
            with use_interner(shard_interner):
                result = VectorizedExecutor(environment).evaluate_columnar([plan])[0]
                columns = [np.array(column) for column in result.columns]
                weights = np.array(result.weights)
                arity = result.arity
                tolerance = result.tolerance
            outputs.append(
                self._reconcile(columns, weights, arity, tolerance,
                                shard_index, shard_interner.take_extensions())
            )
        return outputs

    # -- pool mode ------------------------------------------------------
    def _portable_plan(self, plan: Plan) -> PortablePlan:
        cached = self._portable.get(id(plan))
        if cached is None or cached[0] is not plan:
            cached = (plan, encode_plan(plan))
            self._portable[id(plan)] = cached
        return cached[1]

    def _run_pooled(
        self,
        plan: Plan,
        partitions: dict[str, ShardedColumnarDataset],
        task_timeout: float | None = None,
    ) -> list[ColumnarDataset]:
        pool = self._ensure_pool()
        assert pool is not None
        portable = self._portable_plan(plan)
        interner = global_interner()
        # Snapshot the broadcast horizon before packing: every code inside
        # the shipped columns is below this version by construction.
        version = len(interner)
        atoms = interner._atoms  # noqa: SLF001 - same-package protocol

        segments = []
        tasks = []
        sources = sorted(partitions)
        layouts = [
            (
                name,
                partitions[name].shards[0].arity,
                partitions[name].shards[0].tolerance,
            )
            for name in sources
        ]
        # The packing loop runs *inside* the try: a failure packing shard k
        # must still release shards 0..k-1, or they orphan in /dev/shm.
        try:
            for shard_index in range(self.shards):
                arrays: dict[str, np.ndarray] = {}
                for name in sources:
                    shard = partitions[name].shards[shard_index]
                    for position, column in enumerate(shard.columns):
                        arrays[f"{name}/{position}"] = column
                    arrays[f"{name}/w"] = shard.weights
                segment = pack_arrays(arrays)
                segments.append(segment)

                def prepare(worker, _version=version) -> dict:
                    sent = worker.meta.get("interner_sent", 0)
                    if sent > _version:
                        sent = 0  # stale meta (should not happen) — resend all
                    worker.meta["interner_sent"] = _version
                    return {"delta": list(atoms[sent:_version])}

                tasks.append(
                    PoolTask(
                        run_shard,
                        kwargs={
                            "plan": portable,
                            "layouts": layouts,
                            "descriptor": segment.descriptor,
                            "shard_index": shard_index,
                        },
                        prepare=prepare,
                        timeout=task_timeout,
                    )
                )
            try:
                responses = pool.run_batch(tasks)
            except Exception:
                # The broadcast position is now unknown per worker (a crashed
                # or half-fed incarnation); force a full resend next time.
                # Deltas are deduplicated on the worker, so over-sending is
                # safe.
                for worker in pool.workers:
                    worker.meta.pop("interner_sent", None)
                raise
        finally:
            for segment in segments:
                segment.release()
        outputs = []
        for response in responses:  # shard order == deterministic reconcile
            outputs.append(
                self._reconcile(
                    response["columns"],
                    response["weights"],
                    response["arity"],
                    response["tolerance"],
                    response["worker"],
                    response["extensions"],
                )
            )
        return outputs

    # -- shared reconcile ----------------------------------------------
    def _reconcile(
        self,
        columns: list[np.ndarray],
        weights: np.ndarray,
        arity: int | None,
        tolerance: float,
        worker_index: int,
        extensions: list[Any],
    ) -> ColumnarDataset:
        """Merge a shard's extension atoms and rebuild its output dataset."""
        mapping = merge_extensions(global_interner(), extensions)
        columns = [remap_codes(column, worker_index, mapping) for column in columns]
        return ColumnarDataset(columns, weights, arity, tolerance, assume_unique=True)


# ----------------------------------------------------------------------
# Worker-side entry points (module-level: spawn-picklable by reference)
# ----------------------------------------------------------------------

#: fingerprint -> decoded plan, per worker process; lets a persistent
#: worker rebuild each distinct plan once across requests.
_WORKER_PLANS: dict[str, Plan] = {}


def _shard_worker_init(worker_index: int) -> None:
    """Pool initializer: install this worker's ShardInterner as global."""
    from ..columnar.interning import set_global_interner

    set_global_interner(ShardInterner(worker_index))


def run_shard(
    *,
    plan: PortablePlan,
    layouts: list[tuple[str, int | None, float]],
    descriptor: SegmentDescriptor,
    shard_index: int,
    delta: list[Any] | None = None,
) -> dict:
    """Execute one shard: attach, rebuild, run the chain, return + drain.

    Runs inside a pool worker whose global interner is a
    :class:`ShardInterner` (see :func:`_shard_worker_init`).  The returned
    arrays are copies — never views into the shared segment — so the
    segment unmaps cleanly and the coordinator may unlink it on receipt.
    """
    interner = global_interner()
    if not isinstance(interner, ShardInterner):  # pragma: no cover - misuse guard
        raise RuntimeError("run_shard requires a ShardInterner-initialised worker")
    if delta:
        interner.extend_frozen(delta)

    fingerprint = plan.fingerprint()
    decoded = _WORKER_PLANS.get(fingerprint)
    if decoded is None:
        decoded = decode_plan(plan)
        _WORKER_PLANS[fingerprint] = decoded

    attached = attach_segment(descriptor)
    try:
        environment: dict[str, ColumnarDataset] = {}
        for name, arity, tolerance in layouts:
            width = 1 if arity is None else arity
            columns = tuple(attached.arrays[f"{name}/{position}"] for position in range(width))
            environment[name] = ColumnarDataset(
                columns, attached.arrays[f"{name}/w"], arity, tolerance, assume_unique=True
            )
        result = VectorizedExecutor(environment).evaluate_columnar([decoded])[0]
        response = {
            "worker": interner.worker_index,
            "shard": shard_index,
            "columns": [np.array(column, copy=True) for column in result.columns],
            "weights": np.array(result.weights, copy=True),
            "arity": result.arity,
            "tolerance": result.tolerance,
            "extensions": interner.take_extensions(),
        }
        del result, environment
        return response
    finally:
        attached.close()
