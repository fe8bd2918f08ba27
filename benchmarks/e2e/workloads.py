"""The six workloads of the end-to-end benchmark.

Every workload drives the program through public entry points only
(``repro.service.serve``/``ServiceClient``, ``PrivacySession.measure``,
``GraphSynthesizer.run``, ``ShardedExecutor.evaluate_many``), makes all of its
inputs from ``--seed`` before the timed window, runs whole operations until
``--seconds`` have passed, and checks the program's outputs afterwards.

A workload is one class with five steps::

    setup()      everything up to the timed window (timed as ``setup_s``)
    window(s)    run operations for ``s`` seconds, return a :class:`Window`
    traced(s)    the same with :mod:`tracing` wrappers on -> per-layer numbers
    check()      correctness of what the program returned (outside the window)
    teardown()   stop servers and pools, remove files (safe to call twice)

Why each workload exists is recorded in ``BENCHMARK.json`` and the README.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from calibrate import Calibrator
from tracing import END, NAME, RID, START, Tracer

#: Operations always run in one process with two client threads / pool
#: workers: the machine this benchmark was sized on has two cores.
CLIENTS = 2
SHARDS = 2


class Unmeasured(RuntimeError):
    """The workload cannot be measured on this machine (fail loudly)."""


@dataclass
class Window:
    """What one timed window observed."""

    latencies: list[float] = field(default_factory=list)  # seconds per operation
    ops: int = 0  # completed operations
    failed: int = 0
    busy: float = 0.0  # seconds the operations took: the base of the rates
    errors: list[str] = field(default_factory=list)

    def merged(self, other: "Window") -> "Window":
        return Window(
            self.latencies + other.latencies,
            self.ops + other.ops,
            self.failed + other.failed,
            self.busy + other.busy,
            self.errors + other.errors,
        )


def _process_cpu(pid: int) -> float:
    """user+sys CPU seconds of another live process (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _process_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _per_op(total_seconds: float, ops: int, scale: float) -> float:
    return total_seconds * scale / ops if ops else 0.0


MS, US = 1e3, 1e6

#: Span name -> the layer metrics computed from it, for the spans whose name
#: is not simply the start of the metric's.
SPAN_FEEDS: dict[str, tuple[str, ...]] = {
    "client.measure": ("service.http.self_ms",),
    "service.measure": ("service.http.self_ms", "service.scheduler.self_ms"),
    "scheduler.submit": ("service.scheduler.queue_wait_ms",),
    "engine.push": (
        "dataflow.push_apply_us",
        "dataflow.push_rollback_us",
        "columnar.incremental.push_apply_us",
        "columnar.incremental.push_rollback_us",
    ),
    "engine.score_candidates": ("columnar.incremental.score_candidates_us",),
    "shard.run_batch": ("shard.dispatch_ms",),
}


class Workload:
    """Base class: parameters, the CPU/RSS probes and the traced-phase helper."""

    name = ""
    op = ""  # what one operation is: "request", "step" or "batch"
    #: ``full`` sizes the inputs for the recorded numbers; ``smoke`` for a
    #: seconds-long self-test of the harness.
    sizes: dict[str, dict[str, Any]] = {}
    #: Set-ups per untraced run (``setup_s`` is their median): three where a
    #: set-up is cheap, two where three would not fit the run-time budget.
    setup_repeats = 3
    #: Operations are NumPy passes over 10^5-element arrays (calibrate.py).
    large_arrays = False

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.seed = seed
        self.size = self.sizes["smoke" if smoke else "full"]
        self.workdir = workdir
        self.detail: dict[str, Any] = {"op": self.op, "size": dict(self.size)}
        #: span name (or layer metric name) -> why it could not be measured
        self.unavailable: dict[str, str] = {}
        #: layer metrics that only exist once check() has run
        self.late_layers: dict[str, float] = {}
        #: every window() runs its kernel between operations (calibrate.py)
        self.calibrator = Calibrator(self.large_arrays)

    # -- steps subclasses fill in ---------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def after_setup(self) -> None:
        """Work after each set-up that is neither set-up nor timed window."""

    def window(self, seconds: float) -> Window:
        raise NotImplementedError

    def traced(self, seconds: float, trace_file) -> tuple[Window, dict[str, float]]:
        raise NotImplementedError

    def check(self) -> dict[str, str]:
        """Check name -> "ok" or what went wrong."""
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    # -- probes -----------------------------------------------------------
    @staticmethod
    def _over_children(probe) -> float:
        """Sum of ``probe(pid)`` over the live pool workers."""
        total = 0.0
        for child in multiprocessing.active_children():
            try:
                total += probe(child.pid)
            except OSError:  # the worker exited between the listing and the read
                pass
        return total

    def cpu_seconds(self) -> float:
        times = os.times()
        return times.user + times.system + self._over_children(_process_cpu)

    def children_peak_rss_mb(self) -> float:
        return self._over_children(_process_peak_rss_mb)

    def _plain_traced_plain(
        self, seconds: float, trace_file, install
    ) -> tuple[Window, Window, Tracer]:
        """A traced window between two untraced ones.  The pair gives the
        tracing overhead without a second process, and taking the untraced
        time on both sides cancels a program that slows as its state grows."""
        plain = self.window(seconds * 0.15)
        tracer = Tracer()
        with tracer:
            install(tracer)
            traced = self.window(seconds * 0.7)
        plain = plain.merged(self.window(seconds * 0.15))
        self.unavailable.update(tracer.unavailable)
        self.detail["trace_spans"] = tracer.dump(trace_file, "traced")
        return plain, traced, tracer

    def unavailable_metrics(self, layer_names: list[str]) -> dict[str, str]:
        """Layer metric -> reason, from the spans that could not be wrapped."""
        out: dict[str, str] = {}
        for span, reason in self.unavailable.items():
            fed = SPAN_FEEDS.get(span, ()) + tuple(
                name for name in layer_names if name.startswith(span)
            )
            for name in fed:
                out.setdefault(name, reason)
        return out


def _overhead(plain: Window, traced: Window) -> float:
    """Share of time per operation the wrappers added."""
    if not (plain.ops and traced.ops and plain.busy):
        return 0.0
    return (traced.busy / traced.ops) / (plain.busy / plain.ops) - 1.0


_NO_SPANS = (0, 0.0, 0.0)


def _duration(totals: dict, name: str) -> float:
    """Total seconds spent in spans called ``name``."""
    return totals.get(name, _NO_SPANS)[1]


def _self_per_op(totals: dict, name: str, ops: int, scale: float = MS) -> float:
    return _per_op(totals.get(name, _NO_SPANS)[2], ops, scale)


# ----------------------------------------------------------------------
# Shared wrapper sets
# ----------------------------------------------------------------------
_EXECUTORS = (
    "repro.core.executor:EagerExecutor",
    "repro.core.executor:DataflowExecutor",
    "repro.columnar.executor:VectorizedExecutor",
    "repro.columnar.executor:AutoExecutor",
    "repro.shard.executor:ShardedExecutor",
)
_KERNELS = {
    "join": ("join",),
    "group_by": ("group_by",),
    "shave": ("shave",),
    "select": ("select", "select_many", "where"),
    "setops": ("union", "intersect", "concat", "except_"),
    "other": ("distinct", "down_scale"),
}


def install_core(tracer: Tracer, session_names: dict[int, str] | None = None) -> None:
    """Wrappers around ``repro.core`` and ``repro.columnar``: one measurement
    is costing -> ledger charge -> plan execution (encode, kernels, decode)
    -> noise."""
    names = session_names or {}

    def measure_rid(session, *specs):
        scope = names.get(id(session))
        return [
            [scope, spec[2], spec[1]]
            for spec in specs
            if isinstance(spec, tuple) and len(spec) == 3
        ]

    tracer.wrap("repro.core.queryable:PrivacySession.measure", "core.measure", measure_rid)
    tracer.wrap("repro.core.budget:BudgetLedger.charge", "core.charge")
    tracer.wrap("repro.persistence.ledger:DurableLedger.charge", "core.charge")
    for target in _EXECUTORS:
        tracer.wrap(f"{target}.evaluate_many", "core.execute")
    tracer.wrap("repro.core.aggregation:NoisyCountResult.__init__", "core.noise")
    tracer.wrap("repro.columnar.dataset:ColumnarDataset.from_weighted", "columnar.encode")
    tracer.wrap("repro.columnar.dataset:ColumnarDataset.to_weighted", "columnar.decode")
    for group, kernels in _KERNELS.items():
        for kernel in kernels:
            tracer.wrap(f"repro.columnar.kernels:{kernel}", f"columnar.kernel.{group}")


def core_layers(totals: dict, ops: int) -> dict[str, float]:
    layers = {
        "core.measure.self_ms": _self_per_op(totals, "core.measure", ops),
        "core.charge_ms": _self_per_op(totals, "core.charge", ops),
        "core.execute_ms": _self_per_op(totals, "core.execute", ops),
        "core.noise_ms": _self_per_op(totals, "core.noise", ops),
        "columnar.encode_ms": _self_per_op(totals, "columnar.encode", ops),
        "columnar.decode_ms": _self_per_op(totals, "columnar.decode", ops),
    }
    calls = 0
    for group in _KERNELS:
        entry = totals.get(f"columnar.kernel.{group}", _NO_SPANS)
        calls += entry[0]
        if group != "other":
            layers[f"columnar.kernel.{group}_ms"] = _per_op(entry[2], ops, MS)
    layers["columnar.kernel.calls"] = calls / ops if ops else 0.0
    return layers


def _share_table(totals: dict, ops: int, scale: float) -> dict[str, float]:
    """Self time per operation of every span name, largest first."""
    table = {name: _per_op(entry[2], ops, scale) for name, entry in totals.items()}
    return dict(sorted(table.items(), key=lambda item: -item[1]))


# ----------------------------------------------------------------------
# serve_mixed / serve_durable
# ----------------------------------------------------------------------
@dataclass
class Request:
    session: str
    query: str
    epsilon: float
    replay_of: int | None  # index of the earlier request of this client it repeats


def generate_requests(
    seed: int, workload: str, sessions: int, mix: dict[str, int], count: int,
    replay_share: float = 0.25,
) -> list[list[Request]]:
    """One request list per client, identical for equal seeds.

    A replay repeats an earlier request *of the same client*: clients are
    closed-loop, so that request has been answered and the repeat must come
    from the answer cache.  Fresh requests use an ε no other request has.
    """
    rnd = random.Random(f"{workload}:{seed}")
    queries, weights = list(mix), list(mix.values())
    clients: list[list[Request]] = []
    for client in range(CLIENTS):
        requests: list[Request] = []
        fresh: list[int] = []
        for index in range(count):
            if fresh and rnd.random() < replay_share:
                origin = fresh[rnd.randrange(len(fresh))]
                first = requests[origin]
                requests.append(Request(first.session, first.query, first.epsilon, origin))
                continue
            epsilon = 0.01 + 1e-6 * (client * count + index + 1)
            requests.append(
                Request(
                    f"s{rnd.randrange(sessions)}",
                    rnd.choices(queries, weights)[0],
                    epsilon,
                    None,
                )
            )
            fresh.append(index)
        clients.append(requests)
    return clients


class ServeWorkload(Workload):
    op = "request"
    durable = False
    mix: dict[str, int] = {}

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(seed, smoke, workdir)
        self.server = None
        self._setups = 0
        self.ledger_path: str | None = None
        self.detail.update(
            clients=CLIENTS,
            loop="closed: a client sends its next request after the reply",
            mix=self.mix,
            ledger="sqlite WAL, synchronous=FULL" if self.durable else "in memory",
        )

    def setup(self) -> None:
        from repro.graph.generators import erdos_renyi
        from repro.service import ServiceClient, serve

        self._setups += 1
        if self.durable:
            directory = os.path.join(self.workdir, f"ledger-{self._setups}")
            os.makedirs(directory)
            self.ledger_path = os.path.join(directory, "ledger.db")
        self.server = serve(port=0, ledger=self.ledger_path)
        self.server.serve_in_background()
        self.client = ServiceClient(self.server.url, timeout=60.0)
        self.charged: dict[str, float] = {}
        create = []
        for index in range(self.size["sessions"]):
            graph = erdos_renyi(
                self.size["nodes"], self.size["edges"], rng=self.seed * 1000 + index
            )
            started = time.perf_counter()
            self.client.create_session(f"s{index}", list(graph.edges()), seed=self.seed)
            create.append(time.perf_counter() - started)
        self.create_session_ms = statistics.mean(create) * MS
        # Warm every (session, query) once so the window sees no first-touch
        # cost; these are acknowledged charges and count in the budget check.
        for index in range(self.size["sessions"]):
            for query in self.mix:
                self._account(f"s{index}", self.client.measure(f"s{index}", query, 0.5))
        self.requests = generate_requests(
            self.seed, self.name, self.size["sessions"], self.mix,
            self.size["generated"],
        )
        self.replies: list[list[dict | None]] = [[] for _ in range(CLIENTS)]

    def _account(self, session: str, reply: dict) -> None:
        self.charged[session] = self.charged.get(session, 0.0) + sum(
            reply["charged"].values()
        )

    def _answered(self, since: list[int] | None = None):
        """``(request, reply)`` of every answered request, per client from
        position ``since[client]`` on."""
        for index, replies in enumerate(self.replies):
            for position in range(since[index] if since else 0, len(replies)):
                if replies[position] is not None:
                    yield self.requests[index][position], replies[position]

    def window(self, seconds: float) -> Window:
        from repro.service import ServiceClient

        barrier = threading.Barrier(CLIENTS + 1)
        spans: list[tuple[float, float]] = [(0.0, 0.0)] * CLIENTS
        latencies: list[list[float]] = [[] for _ in range(CLIENTS)]
        errors: list[str] = []

        def analyst(index: int) -> None:
            client = ServiceClient(self.server.url, timeout=60.0)
            requests, replies = self.requests[index], self.replies[index]
            maybe_tick = self.calibrator.ticker()
            barrier.wait()
            started = time.perf_counter()
            deadline = started + seconds
            while len(replies) < len(requests):
                sent = time.perf_counter()
                if sent >= deadline:
                    break
                request = requests[len(replies)]
                try:
                    reply = client.measure(request.session, request.query, request.epsilon)
                except Exception as exc:  # noqa: BLE001 - any failure is a failed op
                    errors.append(f"{request.query}: {exc!r}")
                    replies.append(None)
                    continue
                latencies[index].append(time.perf_counter() - sent)
                replies.append(reply)
                maybe_tick()
            spans[index] = (started, time.perf_counter())

        threads = [threading.Thread(target=analyst, args=(i,)) for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        barrier.wait()
        for thread in threads:
            thread.join()
        wall = max(end for _, end in spans) - min(start for start, _ in spans)
        merged = [value for per_client in latencies for value in per_client]
        return Window(merged, len(merged), len(errors), wall, errors[:5])

    # ------------------------------------------------------------------
    def _install(self, tracer: Tracer) -> None:
        registry = self.server.service.registry
        names = {id(registry.get(name).session): name for name in registry.names()}

        def request_rid(_self, session, query, epsilon, *_args, **_kwargs):
            return [session, query, float(epsilon)]

        tracer.wrap("repro.service.http:ServiceClient.measure", "client.measure", request_rid)
        tracer.wrap("repro.service.core:MeasurementService.measure", "service.measure", request_rid)
        tracer.wrap("repro.service.scheduler:BatchingScheduler.submit", "scheduler.submit", request_rid)
        install_core(tracer, names)
        tracer.wrap("repro.persistence.wal:LedgerStore.charge", "persistence.charge")
        tracer.wrap("repro.persistence.wal:LedgerStore.snapshot", "persistence.snapshot")
        tracer.wrap("repro.persistence.wal:LedgerStore.put_release", "persistence.release_write")
        tracer.wrap("repro.persistence.wal:LedgerStore.append_audit", "persistence.audit_write")

    def traced(self, seconds: float, trace_file) -> tuple[Window, dict[str, float]]:
        before = self.client.stats()
        done_before = [len(replies) for replies in self.replies]
        plain, traced, tracer = self._plain_traced_plain(seconds, trace_file, self._install)
        after = self.client.stats()
        both = plain.merged(traced)
        totals = tracer.totals()
        ops = traced.ops

        # Join handler-thread and drain-thread spans by request id: the wait
        # between a request's submit and the start of the measure pass that
        # carries it is its queue wait.
        submitted = {tuple(s[RID]): s[START] for s in tracer.spans("scheduler.submit")}
        queue_wait = 0.0
        carried = 0.0  # every request waits for its whole fused pass
        for span in tracer.spans("core.measure"):
            for rid in span[RID]:
                carried += span[END] - span[START]
                start = submitted.get(tuple(rid))
                if start is not None:
                    queue_wait += max(0.0, span[START] - start)
        total = functools.partial(_duration, totals)
        release, audit = total("persistence.release_write"), total("persistence.audit_write")
        scheduler_self = total("service.measure") - queue_wait - carried - release - audit

        released = [
            len(reply["values"])
            for index, replies in enumerate(self.replies)
            for reply in replies[: self.size["exact_prefix"]]
            if reply is not None
        ]
        requests = after["requests"] - before["requests"]
        batches = after["batches"] - before["batches"]
        writes = sum(
            totals.get(name, _NO_SPANS)[0] * weight
            for name, weight in (
                ("persistence.charge", 2),  # intent + commit transactions
                ("persistence.release_write", 1),
                ("persistence.audit_write", 1),
                ("persistence.snapshot", 1),
            )
        )
        traced_fresh = sum(len(span[RID]) for span in tracer.spans("core.measure"))
        layers = {
            "service.http.self_ms": _per_op(
                total("client.measure") - total("service.measure"), ops, MS
            ),
            "service.scheduler.queue_wait_ms": _per_op(queue_wait, ops, MS),
            "service.scheduler.self_ms": _per_op(scheduler_self, ops, MS),
            "service.scheduler.fused_per_pass": requests / batches if batches else 0.0,
            "service.cache.hit_ratio": (
                (after["cache"]["hits"] - before["cache"]["hits"]) / both.ops
                if both.ops
                else 0.0
            ),
            "service.registry.create_session_ms": self.create_session_ms,
            "persistence.charge_ms": _self_per_op(totals, "persistence.charge", ops),
            "persistence.release_write_ms": _per_op(release, ops, MS),
            "persistence.audit_write_ms": _per_op(audit, ops, MS),
            "persistence.snapshot_ms": _self_per_op(totals, "persistence.snapshot", ops),
            "persistence.snapshots": float(totals.get("persistence.snapshot", _NO_SPANS)[0]),
            "persistence.txn_per_request": writes / traced_fresh if traced_fresh else 0.0,
            "core.released_records_per_op": (
                statistics.mean(released) if released else 0.0
            ),
            "trace_overhead_fraction": _overhead(plain, traced),
        }
        layers.update(core_layers(totals, ops))
        if self.durable:
            size = sum(
                os.path.getsize(self.ledger_path + suffix)
                for suffix in ("", "-wal")
                if os.path.exists(self.ledger_path + suffix)
            )
            fresh = sum(request.replay_of is None for request, _ in self._answered())
            layers["persistence.db_bytes_per_request"] = size / max(1, fresh)
        replays = sum(
            request.replay_of is not None for request, _ in self._answered(done_before)
        )
        self.detail.update(
            replay_share_generated=replays / both.ops if both.ops else 0.0,
            cache_hit_ratio=layers["service.cache.hit_ratio"],
            traced_requests=ops,
            traced_mean_latency_ms=_per_op(total("client.measure"), ops, MS),
            # The layer metrics, not the raw span table: a request's spans run
            # on three threads, and only the layers subtract across them.
            self_time_ms_per_request=dict(
                sorted(
                    (
                        (name, value)
                        for name, value in layers.items()
                        if name.endswith("_ms") and "create_session" not in name
                    ),
                    key=lambda item: -item[1],
                )
            ),
        )
        return both, layers

    # ------------------------------------------------------------------
    def check(self) -> dict[str, str]:
        checks = {"replays_identical_and_free": "ok", "budget_equals_charged": "ok"}
        for index, replies in enumerate(self.replies):
            for position, reply in enumerate(replies):
                if reply is None:
                    continue
                request = self.requests[index][position]
                self._account(request.session, reply)
                if request.replay_of is None:
                    continue
                first = replies[request.replay_of]
                if first is None:
                    continue
                if not (
                    reply["values"] == first["values"]
                    and reply["charged"] == {}
                    and reply["cached"] is True
                ):
                    checks["replays_identical_and_free"] = (
                        f"client {index} request {position} ({request.query}) "
                        f"did not replay request {request.replay_of}"
                    )
        for session, expected in sorted(self.charged.items()):
            spent = sum(entry["spent"] for entry in self.client.budget(session).values())
            if not math.isclose(spent, expected, rel_tol=1e-9, abs_tol=1e-12):
                checks["budget_equals_charged"] = (
                    f"{session}: ledger spent {spent!r}, replies charged {expected!r}"
                )
        if "replay_share_generated" in self.detail:
            hit_ratio = self.detail.get("cache_hit_ratio")
            share = self.detail["replay_share_generated"]
            checks["cache_hits_equal_replays"] = (
                "ok"
                if hit_ratio is not None and math.isclose(hit_ratio, share, abs_tol=1e-12)
                else f"cache hit ratio {hit_ratio!r} != generated replay share {share!r}"
            )
        if self.durable:
            checks["durable_spend_survives_restart"] = self._check_reopened()
        return checks

    def _check_reopened(self) -> str:
        from repro.persistence.wal import LedgerStore

        self._stop()
        started = time.perf_counter()
        store = LedgerStore(self.ledger_path)
        try:
            store.load_state()
            self.late_layers["persistence.replay_ms"] = (time.perf_counter() - started) * MS
            for session, expected in sorted(self.charged.items()):
                spent = sum(store.spent(session).values())
                if not math.isclose(spent, expected, rel_tol=1e-9, abs_tol=1e-12):
                    return f"{session}: reopened ledger has {spent!r}, charged {expected!r}"
        finally:
            store.close()
        return "ok"

    def _stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def teardown(self) -> None:
        self._stop()
        if self.ledger_path is not None:
            shutil.rmtree(os.path.dirname(self.ledger_path), ignore_errors=True)


class ServeMixed(ServeWorkload):
    name = "serve_mixed"
    mix = {"degree-ccdf": 30, "node-count": 15, "wedges": 20, "tbi": 15, "jdd": 10, "tbd": 10}
    sizes = {
        "full": {"sessions": 4, "nodes": 1000, "edges": 2000, "generated": 4000, "exact_prefix": 100},
        "smoke": {"sessions": 2, "nodes": 100, "edges": 200, "generated": 400, "exact_prefix": 10},
    }


class ServeDurable(ServeWorkload):
    name = "serve_durable"
    durable = True
    mix = {"degree-ccdf": 60, "node-count": 40}
    sizes = {
        "full": {"sessions": 32, "nodes": 100, "edges": 200, "generated": 12000, "exact_prefix": 300},
        "smoke": {"sessions": 4, "nodes": 50, "edges": 100, "generated": 1200, "exact_prefix": 10},
    }


# ----------------------------------------------------------------------
# mcmc_explore / mcmc_converged
# ----------------------------------------------------------------------
#: MCMC scoring backend -> the layer (package) its metrics are named after.
_BACKEND_PREFIX = {"dataflow": "dataflow", "incremental": "columnar.incremental"}


class McmcWorkload(Workload):
    op = "step"
    setup_repeats = 2
    epsilon = 0.0
    pow_ = 0.0

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(seed, smoke, workdir)
        self.probe_accepts: list[int] = []
        self.build_ms: dict[str, float] = {}
        self.fixed: dict[str, dict[str, float]] = {}

    def graphs(self):
        """``(measured graph, seed graph)`` from the workload seed."""
        raise NotImplementedError

    def setup(self) -> None:
        from repro.analyses import node_degrees, protect_graph, triangles_by_intersect_query
        from repro.core.queryable import PrivacySession

        graph, self.seed_graph = self.graphs()
        session = PrivacySession(seed=self.seed)
        protected = protect_graph(session, graph, total_epsilon=float("inf"))
        self.measurements = list(
            session.measure(
                (triangles_by_intersect_query(protected), self.epsilon, "tbi"),
                (node_degrees(protected), self.epsilon, "degrees"),
            )
        )
        self.synth = self._build()  # the default backend
        self.detail.update(
            edges=graph.number_of_edges(),
            degree_sum_of_squares=graph.degree_sum_of_squares(),
        )

    def _build(self, **backend):
        from repro.inference.synthesizer import GraphSynthesizer

        started = time.perf_counter()
        synth = GraphSynthesizer(
            self.measurements, self.seed_graph, pow_=self.pow_, rng=self.seed, **backend
        )
        self.build_ms[synth.backend] = (time.perf_counter() - started) * MS
        return synth

    def after_setup(self) -> None:
        # Same seed, same chain: the accepted count after a fixed number of
        # steps must not differ between set-ups (check c).
        self.probe_accepts.append(self.synth.run(self.size["probe"]).accepted)

    def _steps(self, synth, seconds: float, chunk: int = 0, **run_options) -> Window:
        window = Window()
        chunk = chunk or self.size["chunk"]
        sampler = synth.sampler
        maybe_tick = self.calibrator.ticker()
        started = time.perf_counter()
        deadline = started + seconds
        while time.perf_counter() < deadline:
            maybe_tick()
            try:
                result = synth.run(chunk, **run_options)
            except Exception as exc:  # noqa: BLE001 - a failed chunk fails its steps
                window.failed += chunk
                window.errors.append(repr(exc))
                break
            window.latencies.append(result.elapsed_seconds / chunk)
            window.busy += result.elapsed_seconds
            window.ops += chunk
            if sampler.steps == self.size["exact_at"]:
                # Counts taken at a fixed step repeat exactly for a seed,
                # however many steps the time-bounded window goes on to run.
                self.fixed[synth.backend] = {
                    "accepted": sampler.accepted,
                    "steps": sampler.steps,
                    "state_entries": synth.state_entry_count(),
                }
        return window

    def window(self, seconds: float) -> Window:
        return self._steps(self.synth, seconds)

    # ------------------------------------------------------------------
    @staticmethod
    def _install(tracer: Tracer) -> None:
        def mark_null(span, result):
            if result is None:
                span[RID] = "null"

        tracer.wrap(
            "repro.inference.mcmc:IncrementalMetropolisHastings.step",
            "inference.step",
            lambda sampler: sampler.steps,
        )
        tracer.wrap("repro.inference.random_walks:EdgeSwapWalk.propose", "inference.propose", after=mark_null)
        tracer.wrap("repro.dataflow.engine:DataflowEngine.push", "engine.push")
        tracer.wrap("repro.inference.scoring:ScoreTracker.log_score", "inference.score")
        incremental = "repro.inference.columnar_scoring:IncrementalColumnarScoreEngine"
        tracer.wrap(f"{incremental}.push", "engine.push")
        tracer.wrap(f"{incremental}.log_score", "inference.score")
        tracer.wrap(
            f"{incremental}.score_candidates",
            "engine.score_candidates",
            lambda _engine, candidates: len(candidates),
        )

    def _traced_steps(self, synth, seconds, trace_file, phase, **steps_options):
        tracer = Tracer()
        with tracer:
            self._install(tracer)
            window = self._steps(synth, seconds, **steps_options)
        self.unavailable.update(tracer.unavailable)
        self.detail["trace_spans"] = self.detail.get("trace_spans", 0) + tracer.dump(
            trace_file, phase
        )
        steps = window.ops
        apply = rollback = 0.0
        for _step, children in tracer.children("inference.step"):
            pushes = [c for c in children if c[NAME] == "engine.push"]
            if pushes:
                apply += pushes[0][END] - pushes[0][START]
                rollback += sum(c[END] - c[START] for c in pushes[1:])
        totals = tracer.totals()
        parts = {
            "propose_us": _per_op(_duration(totals, "inference.propose"), steps, US),
            "push_apply_us": _per_op(apply, steps, US),
            "push_rollback_us": _per_op(rollback, steps, US),
            "score_us": _per_op(_duration(totals, "inference.score"), steps, US),
            "step.self_us": _self_per_op(totals, "inference.step", steps, US),
        }
        nulls = sum(1 for span in tracer.spans("inference.propose") if span[RID] == "null")
        parts["null_proposal_ratio"] = nulls / steps if steps else 0.0
        candidates = sum(span[RID] for span in tracer.spans("engine.score_candidates"))
        parts["score_candidates_us"] = _per_op(
            _duration(totals, "engine.score_candidates"), candidates, US
        )
        parts["traced_step_us"] = _per_op(window.busy, steps, US)
        return window, parts

    def traced(self, seconds: float, trace_file) -> tuple[Window, dict[str, float]]:
        layers: dict[str, float] = {}
        default = self.synth.backend
        plain = self._steps(self.synth, seconds * 0.1)
        traced, parts = self._traced_steps(self.synth, seconds * 0.3, trace_file, default)
        plain = plain.merged(self._steps(self.synth, seconds * 0.1))
        self.detail["self_time_us_per_step"] = {default: parts}
        layers["trace_overhead_fraction"] = _overhead(plain, traced)
        for key in ("propose_us", "score_us", "step.self_us", "null_proposal_ratio"):
            layers[f"inference.{key}"] = parts[key]
        self._backend_layers(layers, self.synth, parts)

        # The same chain on the other incremental engine, so its layer shows
        # beside the default's; then its fused candidate scoring.
        synths = {default: self.synth}
        for backend in _BACKEND_PREFIX:
            if backend == default:
                continue
            try:
                synths[backend] = self._build(backend=backend)
            except (ValueError, ImportError) as exc:
                self.unavailable[_BACKEND_PREFIX[backend]] = repr(exc)
                continue
            _, parts = self._traced_steps(
                synths[backend], seconds * 0.3, trace_file, backend
            )
            self.detail["self_time_us_per_step"][backend] = parts
            self._backend_layers(layers, synths[backend], parts)
        if "incremental" in synths:
            # run() scores in fused batches only once its moving acceptance
            # estimate has fallen below 0.2, five batches into a call: so
            # calls long enough that most of their steps are fused.
            _, parts = self._traced_steps(
                synths["incremental"], seconds * 0.2, trace_file,
                "incremental-batch16", chunk=400, proposal_batch=16,
            )
            layers["columnar.incremental.score_candidates_us"] = parts["score_candidates_us"]

        fixed = self.fixed.get(default)
        if fixed is None:  # a very slow machine: fall back to the whole run
            sampler = self.synth.sampler
            fixed = {"accepted": sampler.accepted, "steps": sampler.steps}
            self.detail["exact_counts"] = "window ended before the fixed step"
        layers["inference.accept_ratio"] = fixed["accepted"] / fixed["steps"]
        return plain.merged(traced), layers

    def _backend_layers(self, layers, synth, parts) -> None:
        prefix = _BACKEND_PREFIX[synth.backend]
        layers[f"{prefix}.build_ms"] = self.build_ms[synth.backend]
        layers[f"{prefix}.push_apply_us"] = parts["push_apply_us"]
        layers[f"{prefix}.push_rollback_us"] = parts["push_rollback_us"]
        fixed = self.fixed.get(synth.backend)
        layers[f"{prefix}.state_entries"] = float(
            fixed["state_entries"] if fixed else synth.state_entry_count()
        )

    # ------------------------------------------------------------------
    def check(self) -> dict[str, str]:
        checks = {}
        if len(self.probe_accepts) > 1:
            checks["accepted_count_repeats"] = (
                "ok"
                if len(set(self.probe_accepts)) == 1
                else f"accepted counts differ between set-ups: {self.probe_accepts}"
            )
        before = self.synth.distances()
        self.synth.tracker.resynchronize()
        after = self.synth.distances()
        drift = max(abs(before[name] - after[name]) for name in before)
        checks["resynchronize_moves_nothing"] = (
            "ok" if drift <= 1e-9 else f"resynchronize moved a distance by {drift!r}"
        )
        self.detail["accepted_after_probe"] = self.probe_accepts[:1]
        return checks


class McmcExplore(McmcWorkload):
    name = "mcmc_explore"
    epsilon, pow_ = 0.1, 1.0
    sizes = {
        "full": {"nodes": 5000, "edges": 10000, "chunk": 25, "probe": 200, "exact_at": 1000},
        "smoke": {"nodes": 300, "edges": 600, "chunk": 25, "probe": 50, "exact_at": 100},
    }

    def graphs(self):
        from repro.graph.generators import erdos_renyi, random_twin

        graph = erdos_renyi(self.size["nodes"], self.size["edges"], rng=self.seed)
        return graph, random_twin(graph, rng=self.seed)


class McmcConverged(McmcWorkload):
    name = "mcmc_converged"
    epsilon, pow_ = 1.0, 10000.0
    sizes = {
        "full": {"nodes": 2500, "papers": 2600, "chunk": 10, "probe": 100, "exact_at": 300},
        "smoke": {"nodes": 200, "papers": 210, "chunk": 10, "probe": 30, "exact_at": 60},
    }

    def graphs(self):
        from repro.graph.generators import collaboration_graph

        graph = collaboration_graph(self.size["nodes"], self.size["papers"], rng=self.seed)
        return graph, graph  # start at the measured graph: almost nothing accepts


# ----------------------------------------------------------------------
# analyst_batch
# ----------------------------------------------------------------------
def _analyst_requests(protected):
    from repro import analyses

    return [
        (analyses.degree_ccdf_query(protected), 0.1, "degree-ccdf"),
        (analyses.wedges_query(protected), 0.1, "wedges"),
        (analyses.triangles_by_intersect_query(protected), 0.1, "tbi"),
        (analyses.joint_degree_query(protected), 0.1, "jdd"),
        (analyses.triangles_by_degree_query(protected), 0.1, "tbd"),
    ]


class AnalystBatch(Workload):
    name = "analyst_batch"
    op = "batch"
    large_arrays = True
    sizes = {
        "full": {"nodes": 1500, "edges_per_node": 4, "prefix_edges": 300},
        "smoke": {"nodes": 150, "edges_per_node": 4, "prefix_edges": 100},
    }

    def _measure(self, graph, executor: str):
        """One fresh session, one batch: ``(seconds, releases)``."""
        from repro.analyses import protect_graph
        from repro.core.queryable import PrivacySession

        session = PrivacySession(seed=self.seed, executor=executor)
        requests = _analyst_requests(
            protect_graph(session, graph, total_epsilon=float("inf"))
        )
        started = time.perf_counter()
        results = session.measure(*requests)
        elapsed = time.perf_counter() - started
        return elapsed, [list(result.items()) for result in results]

    def setup(self) -> None:
        from repro.graph.generators import social_graph

        self.graph = social_graph(
            self.size["nodes"], self.size["edges_per_node"], rng=self.seed
        )
        _, self.reference = self._measure(self.graph, "auto")  # warms the interner
        self.differing = 0

    def window(self, seconds: float) -> Window:
        window = Window()
        started = time.perf_counter()
        deadline = started + seconds
        while time.perf_counter() < deadline:
            for _ in range(3):
                self.calibrator.tick()
            try:
                elapsed, releases = self._measure(self.graph, "auto")
            except Exception as exc:  # noqa: BLE001 - a failed batch is a failed op
                window.failed += 1
                window.errors.append(repr(exc))
                break
            window.latencies.append(elapsed)
            window.busy += elapsed
            window.ops += 1
            self.differing += releases != self.reference
        return window

    def traced(self, seconds: float, trace_file) -> tuple[Window, dict[str, float]]:
        from repro.columnar.interning import global_interner

        plain, traced, tracer = self._plain_traced_plain(seconds, trace_file, install_core)
        totals = tracer.totals()
        layers = core_layers(totals, traced.ops)
        layers["core.released_records_per_op"] = float(
            sum(len(release) for release in self.reference)
        )
        layers["columnar.interner.atoms"] = float(len(global_interner()))
        layers["trace_overhead_fraction"] = _overhead(plain, traced)
        self.detail.update(
            traced_batch_ms=_per_op(traced.busy, traced.ops, MS),
            self_time_ms_per_batch=_share_table(totals, traced.ops, MS),
        )
        return plain.merged(traced), layers

    def check(self) -> dict[str, str]:
        from repro.graph.graph import Graph

        checks = {
            "same_seed_same_release": (
                "ok"
                if not self.differing
                else f"{self.differing} batches released other values than the first"
            )
        }
        # "auto" routes a graph this small to the eager reference, so the
        # comparison names the columnar backend directly.  The two sum exact
        # weights in different orders: records and order must be identical,
        # values equal to float rounding.
        prefix = Graph(list(self.graph.edges())[: self.size["prefix_edges"]])
        _, columnar = self._measure(prefix, "vectorized")
        _, eager = self._measure(prefix, "eager")
        verdict = "ok"
        for ours, theirs in zip(columnar, eager):
            if [record for record, _ in ours] != [record for record, _ in theirs]:
                verdict = "vectorized and eager released different records or order"
            elif any(
                not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
                for (_, a), (_, b) in zip(ours, theirs)
            ):
                verdict = "vectorized and eager released different values"
        checks["columnar_equals_eager_on_prefix"] = verdict
        return checks


# ----------------------------------------------------------------------
# shard_scan
# ----------------------------------------------------------------------
class ShardScan(Workload):
    name = "shard_scan"
    op = "batch"
    setup_repeats = 2
    large_arrays = True
    sizes = {
        "full": {"nodes": 20000, "edges": 40000},
        "smoke": {"nodes": 4000, "edges": 8000},
    }

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        if (os.cpu_count() or 1) < SHARDS:
            raise Unmeasured(
                f"shard_scan needs {SHARDS} cores, this machine has {os.cpu_count()}"
            )
        super().__init__(seed, smoke, workdir)
        self.sharded = None
        self.detail.update(shards=SHARDS, plans=5)

    def setup(self) -> None:
        from repro.columnar.executor import VectorizedExecutor
        from repro.columnar.specs import Field, Permute
        from repro.core.dataset import WeightedDataset
        from repro.core.plan import DownScalePlan, SelectPlan, ShavePlan, SourcePlan
        from repro.graph.generators import erdos_renyi
        from repro.shard.executor import ShardedExecutor

        graph = erdos_renyi(self.size["nodes"], self.size["edges"], rng=self.seed)
        dataset = WeightedDataset.from_records(graph.to_edge_records(symmetric=True))
        source = SourcePlan("edges")
        self.plans = [
            source,
            SelectPlan(source, Permute(1, 0)),
            SelectPlan(source, Field(0)),
            DownScalePlan(source, 0.5),
            SelectPlan(ShavePlan(source, 1.0), Field(1)),
        ]
        self.environment = {"edges": dataset}
        self.vectorized = VectorizedExecutor(self.environment)
        self.expected = self.vectorized.evaluate_many(self.plans)
        self.shm_before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
        self.sharded = ShardedExecutor(self.environment, shards=SHARDS)
        started = time.perf_counter()
        self.sharded.evaluate_many(self.plans)  # starts the pool
        first = time.perf_counter()
        self.results = self.sharded.evaluate_many(self.plans)  # warm
        self.pool_start_s = (first - started) - (time.perf_counter() - first)
        self.detail["records"] = len(dataset)

    def window(self, seconds: float) -> Window:
        window = Window()
        started = time.perf_counter()
        deadline = started + seconds
        while time.perf_counter() < deadline:
            for _ in range(3):
                self.calibrator.tick()
            begun = time.perf_counter()
            try:
                self.results = self.sharded.evaluate_many(self.plans)
            except Exception as exc:  # noqa: BLE001 - a failed batch is a failed op
                window.failed += 1
                window.errors.append(repr(exc))
                break
            elapsed = time.perf_counter() - begun
            window.latencies.append(elapsed)
            window.busy += elapsed
            window.ops += 1
        return window

    @staticmethod
    def _install(tracer: Tracer) -> None:
        def segment_bytes(span, segment):
            _, dtype, shape, offset = segment.descriptor.manifest[-1]
            span[RID] = offset + math.prod(shape) * np.dtype(dtype).itemsize

        install_core(tracer)
        # The executor calls the names it imported, so those are the ones to wrap.
        tracer.wrap("repro.shard.executor:pack_arrays", "shard.pack", after=segment_bytes)
        tracer.wrap("repro.shard.pool:ProcessPool.run_batch", "shard.run_batch")
        tracer.wrap("repro.shard.executor:concat_merge", "shard.merge")
        tracer.wrap("repro.shard.executor:sum_merge", "shard.merge")

    def traced(self, seconds: float, trace_file) -> tuple[Window, dict[str, float]]:
        from repro.shard.executor import ShardedExecutor

        plain, traced, tracer = self._plain_traced_plain(seconds, trace_file, self._install)
        totals = tracer.totals()
        ops = traced.ops
        total = functools.partial(_duration, totals)

        # Worker-side kernel time cannot be seen from the coordinator: run
        # the same shards inline once and take, per plan, the slower shard.
        inline_tracer = Tracer()
        with inline_tracer:
            inline_tracer.wrap(
                "repro.columnar.executor:VectorizedExecutor.evaluate_columnar",
                "shard.run_shard_inline",
            )
            ShardedExecutor(self.environment, shards=SHARDS, pool=None).evaluate_many(
                self.plans
            )
        self.unavailable.update(inline_tracer.unavailable)
        shard_runs = [s[END] - s[START] for s in inline_tracer.spans("shard.run_shard_inline")]
        worker_share = sum(
            max(shard_runs[i : i + SHARDS]) for i in range(0, len(shard_runs), SHARDS)
        )
        baseline = []
        for _ in range(3):
            started = time.perf_counter()
            self.vectorized.evaluate_many(self.plans)
            baseline.append(time.perf_counter() - started)
        sharded_batch = statistics.median(traced.latencies) if traced.latencies else 0.0

        layers = core_layers(totals, ops)
        layers.update(
            {
                "shard.pool_start_s": self.pool_start_s,
                "shard.pack_ms": _per_op(total("shard.pack"), ops, MS),
                "shard.dispatch_ms": _per_op(total("shard.run_batch"), ops, MS)
                - worker_share * MS,
                "shard.run_shard_inline_ms": worker_share * MS,
                "shard.merge_ms": _per_op(total("shard.merge"), ops, MS),
                "shard.shm_bytes": _per_op(
                    sum(span[RID] or 0 for span in tracer.spans("shard.pack")), ops, 1.0
                ),
                "shard.speedup_vs_vectorized": (
                    statistics.median(baseline) / sharded_batch if sharded_batch else 0.0
                ),
                "trace_overhead_fraction": _overhead(plain, traced),
            }
        )
        from repro.columnar.interning import global_interner

        layers["columnar.interner.atoms"] = float(len(global_interner()))
        self.detail.update(
            traced_batch_ms=_per_op(traced.busy, ops, MS),
            vectorized_batch_ms=statistics.median(baseline) * MS,
            self_time_ms_per_batch=_share_table(totals, ops, MS),
        )
        return plain.merged(traced), layers

    def check(self) -> dict[str, str]:
        checks = {"sharded_equals_vectorized": "ok"}
        for index, (want, got) in enumerate(zip(self.expected, self.results)):
            if want.to_dict() != got.to_dict():
                checks["sharded_equals_vectorized"] = f"plan {index} differs"
        self._close()
        left = (
            set(os.listdir("/dev/shm")) - self.shm_before
            if os.path.isdir("/dev/shm")
            else set()
        )
        checks["no_shm_segment_left"] = "ok" if not left else f"left in /dev/shm: {sorted(left)}"
        return checks

    def _close(self) -> None:
        if self.sharded is not None:
            self.sharded.close()
            self.sharded = None

    def teardown(self) -> None:
        self._close()


WORKLOADS = {
    cls.name: cls
    for cls in (ServeMixed, ServeDurable, McmcExplore, McmcConverged, AnalystBatch, ShardScan)
}
