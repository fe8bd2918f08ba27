"""A persistent, spawn-safe worker-process pool with crash recovery.

``multiprocessing.Pool`` hides exactly the failure modes a long-lived
execution service must surface (a killed worker hangs ``map``), and
``concurrent.futures.ProcessPoolExecutor`` broke the whole pool on a
worker death until 3.11 and still cannot restart one.  This pool is small
and explicit instead:

* **Framing** — one duplex :class:`multiprocessing.Pipe` per worker; every
  request is ``(request_id, function, args, kwargs)`` and every response
  ``(request_id, "ok" | "error", payload)``.  Functions are module-level
  callables pickled by reference — spawn-safe by construction.
* **Liveness** — :meth:`ping` performs an explicit request/response
  heartbeat (used at boot to confirm initialisation); during a batch the
  dispatcher multiplexes responses with :func:`multiprocessing.connection
  .wait`, checks ``Process.is_alive()`` whenever a connection goes quiet,
  and enforces a per-task deadline (``task_timeout``) — a worker that
  blows the deadline is killed and treated as crashed.
* **Crash recovery** — a dead worker's in-flight task is retried on a
  freshly spawned replacement (up to ``retries`` times across the batch)
  or failed cleanly with :class:`WorkerCrashError`; either way the batch
  always terminates and the pool stays usable.  Each incarnation gets a
  new ``generation`` and an empty ``meta`` dict, which is how the sharded
  executor knows to re-broadcast its interner snapshot.
* **Shutdown** — :meth:`shutdown` sends a stop frame, joins with a grace
  period, then terminates and finally kills stragglers.  Workers are
  daemonic, so an abandoned pool cannot outlive the coordinator.

Start method: ``spawn`` by default (fork is unsound under threads — and
the service runs them); ``fork`` opt-in via the constructor or
``REPRO_SHARD_START_METHOD`` for fork-safe workloads that want the cheap
startup.
"""

from __future__ import annotations

import itertools
import os
import pickle
import time
import multiprocessing as mp
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Sequence

from ..exceptions import FaultInjectedError
from ..resilience.faults import inject
from ..sanitize import ordered_lock

__all__ = ["PoolError", "WorkerCrashError", "PoolTask", "ProcessPool"]

_STOP = "__stop__"
_PING = "__ping__"

#: Default per-task deadline (seconds); generous because shard tasks are
#: compute-bound.  Override per pool or via REPRO_SHARD_TIMEOUT.
DEFAULT_TASK_TIMEOUT = 600.0


class PoolError(RuntimeError):
    """A pool request failed."""


class WorkerCrashError(PoolError):
    """A worker died (or hung past its deadline) while running a task."""


class TaskFailedError(PoolError):
    """The task function raised inside the worker; remote traceback attached."""

    def __init__(self, message: str, remote_traceback: str = "") -> None:
        super().__init__(message)
        self.remote_traceback = remote_traceback


def _worker_main(conn, index: int, initializer, init_args) -> None:
    """Worker loop: initialise once, then serve request frames until stop."""
    import traceback

    try:
        if initializer is not None:
            initializer(index, *init_args)
    except BaseException:
        # Initialisation failure: report it to the first request (or ping)
        # and exit; the parent sees the EOF as a crash and restarts.
        try:
            conn.send((None, "error", "worker initializer failed", traceback.format_exc()))
        finally:
            return
    while True:
        try:
            frame = conn.recv()
        except (EOFError, OSError):
            return
        if frame[0] == _STOP:
            return
        if frame[0] == _PING:
            conn.send((_PING, "ok", frame[1]))
            continue
        request_id, function, args, kwargs = frame
        try:
            inject("pool.worker")
            result = function(*args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - forwarded, not hidden
            conn.send((request_id, "error", repr(exc), traceback.format_exc()))
        else:
            try:
                conn.send((request_id, "ok", result))
            except (TypeError, AttributeError, pickle.PicklingError) as exc:
                # Pickling happens before any bytes hit the pipe, so the
                # channel is still clean: report instead of dying.
                conn.send(
                    (request_id, "error", f"unpicklable result: {exc!r}", traceback.format_exc())
                )


class _Worker:
    """Parent-side record of one worker incarnation."""

    __slots__ = ("index", "generation", "process", "conn", "meta", "task")

    def __init__(self, index: int, generation: int, process, conn) -> None:
        self.index = index
        self.generation = generation
        self.process = process
        self.conn = conn
        #: Scratch space for pool clients (cleared on restart); the sharded
        #: executor tracks its interner broadcast position here.
        self.meta: dict[str, Any] = {}
        #: The batch slot this worker is currently running, if any.
        self.task: "_Slot | None" = None


class _Slot:
    """One task of a batch: its spec, attempts and eventual outcome."""

    __slots__ = (
        "position", "task", "attempts", "result", "error", "done", "deadline",
        "limit",
    )

    def __init__(self, position: int, task: "PoolTask") -> None:
        self.position = position
        self.task = task
        self.attempts = 0
        self.result = None
        self.error: Exception | None = None
        self.done = False
        self.deadline = 0.0
        self.limit = 0.0


class PoolTask:
    """A unit of pool work: a module-level function plus its arguments.

    ``prepare(worker)`` — optional — is called when the task is assigned to
    a concrete worker and returns extra keyword arguments merged into the
    call.  This is the hook for per-worker payloads (the sharded executor
    computes each worker's interner delta here, because only at dispatch
    time is the receiving incarnation known).

    ``timeout`` — optional — tightens the pool's ``task_timeout`` for this
    one task (never loosens it); the sharded executor derives it from the
    request's propagated deadline so a task cannot outlive its caller.
    """

    __slots__ = ("function", "args", "kwargs", "prepare", "timeout")

    def __init__(
        self,
        function: Callable,
        args: tuple = (),
        kwargs: dict | None = None,
        prepare: Callable[[_Worker], dict] | None = None,
        timeout: float | None = None,
    ) -> None:
        self.function = function
        self.args = args
        self.kwargs = kwargs or {}
        self.prepare = prepare
        self.timeout = timeout


class ProcessPool:
    """The persistent worker pool.  See the module docstring for semantics."""

    def __init__(
        self,
        workers: int = 2,
        start_method: str | None = None,
        initializer: Callable | None = None,
        init_args: tuple = (),
        task_timeout: float | None = None,
        retries: int = 1,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be a positive integer")
        if start_method is None:
            start_method = os.environ.get("REPRO_SHARD_START_METHOD", "spawn")
        if start_method not in ("spawn", "fork", "forkserver"):
            raise ValueError(f"unsupported start method {start_method!r}")
        if task_timeout is None:
            task_timeout = float(os.environ.get("REPRO_SHARD_TIMEOUT", DEFAULT_TASK_TIMEOUT))
        self.start_method = start_method
        self.task_timeout = task_timeout
        self.retries = retries
        self._context = mp.get_context(start_method)
        self._initializer = initializer
        self._init_args = init_args
        self._request_ids = itertools.count()
        self._generations = itertools.count()
        self._closed = False
        # Serialises concurrent shutdown() callers: the teardown runs once,
        # later callers block until it finishes, then return.
        self._shutdown_lock = ordered_lock("shard.pool.shutdown", 30, io_ok=True)
        # Start the parent's resource tracker *before* any worker exists.
        # A fork child created while the tracker is still unlaunched lazily
        # starts its own private tracker on first shared-memory attach; that
        # tracker never sees the coordinator's unlink and tries to unlink
        # already-gone segments at worker exit (one warning per attach).
        # Spawn children are immune only because the spawn machinery itself
        # calls getfd() -> ensure_running(); forcing it here makes every
        # start method inherit the one shared tracker.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - e.g. platforms without it
            pass
        self.workers: list[_Worker] = [self._spawn(index) for index in range(workers)]
        #: Cumulative crash/restart count (observability + tests).
        self.restarts = 0

    # ------------------------------------------------------------------
    def _spawn(self, index: int) -> _Worker:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn, index, self._initializer, self._init_args),
            daemon=True,
            name=f"repro-shard-{index}",
        )
        process.start()
        child_conn.close()
        return _Worker(index, next(self._generations), process, parent_conn)

    def _restart(self, worker: _Worker) -> None:
        """Replace a dead/hung worker with a fresh incarnation in place."""
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=5)
        replacement = self._spawn(worker.index)
        worker.generation = replacement.generation
        worker.process = replacement.process
        worker.conn = replacement.conn
        worker.meta = {}
        worker.task = None
        self.restarts += 1

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.workers)

    def ping(self, timeout: float = 30.0) -> list[float]:
        """Round-trip a heartbeat through every worker; returns latencies.

        Also the boot barrier: a worker answers its first ping only after
        its initializer ran, so ``ping()`` after construction guarantees
        the pool is ready (or raises :class:`WorkerCrashError`).
        """
        self._ensure_open()
        latencies = []
        for worker in self.workers:
            token = next(self._request_ids)
            started = time.perf_counter()
            try:
                inject("pool.heartbeat")
                worker.conn.send((_PING, token))
                while True:
                    if not worker.conn.poll(timeout):
                        raise WorkerCrashError(
                            f"worker {worker.index} did not answer a ping within {timeout}s"
                        )
                    frame = worker.conn.recv()
                    if frame[0] == _PING and frame[2] == token:
                        break
                    if frame[1] == "error":
                        raise TaskFailedError(str(frame[2]), frame[3] if len(frame) > 3 else "")
            except (EOFError, OSError, BrokenPipeError) as exc:
                self._restart(worker)
                raise WorkerCrashError(f"worker {worker.index} died during ping") from exc
            latencies.append(time.perf_counter() - started)
        return latencies

    # ------------------------------------------------------------------
    def run_batch(self, tasks: Sequence[PoolTask]) -> list[Any]:
        """Run ``tasks`` across the workers; results in task order.

        Tasks are dispatched to idle workers as responses drain.  A worker
        crash (or deadline overrun) fails its task's current attempt: the
        task is requeued while attempts remain, otherwise the whole batch
        raises :class:`WorkerCrashError` after every other task has been
        driven to completion — the pool itself is always left usable.
        """
        self._ensure_open()
        slots = [_Slot(position, task) for position, task in enumerate(tasks)]
        if not slots:
            return []
        pending: list[_Slot] = list(slots)
        failures: list[Exception] = []

        def dispatch(worker: _Worker) -> None:
            slot = pending.pop(0)
            slot.attempts += 1
            slot.limit = self.task_timeout
            if slot.task.timeout is not None:
                slot.limit = min(slot.limit, slot.task.timeout)
            slot.deadline = time.monotonic() + slot.limit
            kwargs = dict(slot.task.kwargs)
            if slot.task.prepare is not None:
                kwargs.update(slot.task.prepare(worker))
            worker.task = slot
            try:
                inject("pool.dispatch")
                worker.conn.send(
                    (next(self._request_ids), slot.task.function, slot.task.args, kwargs)
                )
            except FaultInjectedError as exc:
                # Injected dispatch failure: charge the attempt without
                # killing the (healthy) worker.
                worker.task = None
                self._requeue_or_fail(slot, pending, failures, exc)
            except (OSError, BrokenPipeError):
                worker.task = None
                self._on_crash(worker, slot, pending, failures)

        def idle_workers() -> list[_Worker]:
            return [worker for worker in self.workers if worker.task is None]

        while pending or any(worker.task is not None for worker in self.workers):
            for worker in idle_workers():
                if not pending:
                    break
                dispatch(worker)
            busy = [worker for worker in self.workers if worker.task is not None]
            if not busy:
                continue
            nearest = min(worker.task.deadline for worker in busy)
            timeout = max(0.0, min(nearest - time.monotonic(), 1.0))
            ready = connection_wait([worker.conn for worker in busy], timeout)
            ready_set = set(ready)
            now = time.monotonic()
            for worker in busy:
                slot = worker.task
                if worker.conn in ready_set:
                    try:
                        frame = worker.conn.recv()
                    except (EOFError, OSError):
                        worker.task = None
                        self._on_crash(worker, slot, pending, failures)
                        continue
                    worker.task = None
                    if frame[1] == "ok":
                        slot.result = frame[2]
                        slot.done = True
                    else:
                        slot.error = TaskFailedError(
                            f"task {slot.position} raised in worker {worker.index}: {frame[2]}",
                            frame[3] if len(frame) > 3 else "",
                        )
                        slot.done = True
                        failures.append(slot.error)
                elif not worker.process.is_alive():
                    worker.task = None
                    self._on_crash(worker, slot, pending, failures)
                elif now > slot.deadline:
                    worker.task = None
                    self._restart(worker)
                    self._requeue_or_fail(
                        slot,
                        pending,
                        failures,
                        WorkerCrashError(
                            f"task {slot.position} exceeded the {slot.limit}s "
                            f"deadline in worker {worker.index}; worker killed"
                        ),
                    )
        if failures:
            raise failures[0]
        return [slot.result for slot in slots]

    def _on_crash(self, worker: _Worker, slot: _Slot, pending, failures) -> None:
        self._restart(worker)
        self._requeue_or_fail(
            slot,
            pending,
            failures,
            WorkerCrashError(
                f"worker {worker.index} died while running task {slot.position}"
            ),
        )

    def _requeue_or_fail(self, slot: _Slot, pending, failures, error: Exception) -> None:
        if slot.attempts <= self.retries:
            pending.append(slot)
        else:
            slot.error = error
            slot.done = True
            failures.append(error)

    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise PoolError("pool is shut down")

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop every worker: graceful frame, join, then terminate/kill.

        Idempotent under concurrent callers: the teardown runs exactly once;
        a racing caller blocks until the workers are actually gone, so no
        caller can observe a half-shut pool.
        """
        with self._shutdown_lock:
            self._shutdown_locked(timeout)

    def _shutdown_locked(self, timeout: float) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self.workers:
            try:
                worker.conn.send((_STOP,))
            except (OSError, BrokenPipeError):
                pass
        deadline = time.monotonic() + timeout
        for worker in self.workers:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
        for worker in self.workers:
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2)
            if worker.process.is_alive():  # pragma: no cover - stubborn worker
                worker.process.kill()
                worker.process.join(timeout=2)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.shutdown(timeout=0.5)
        except Exception:
            pass
