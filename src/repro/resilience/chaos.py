"""Randomized chaos harness for the serve/shard/persistence stack.

``run_chaos`` drives a durable measurement service through many steps, each
under a *different* randomized (but seed-deterministic) fault schedule, and
checks the four resilience invariants after every run:

1. **No lost or phantom ε** — after the final ledger reopen, once every
   failed ``(query, ε)`` is measured again, the durable spend of every
   protected source is exactly the unit costs of the distinct keys holding a
   release, each paid once: every acknowledged answer is paid for, and no
   failed attempt charged without leaving a release its retry replays.
2. **No orphaned shared memory** — the set of ``/dev/shm`` segments after
   shutdown equals the set before the run started.
3. **No stuck service or pool** — every operation completes (successfully
   or with an error) within a liveness bound.
4. **Bit-identical replay** — after reopening the ledger, every acknowledged
   ``(query, ε)`` measurement replays the exact released values from the
   answer cache with ``charged == False`` and zero additional spend.

Two modes:

* **in-process** (the default): a :class:`MeasurementService` is driven
  directly, one fresh random :class:`~repro.resilience.faults.FaultPlan` per
  step (``fail``/``delay`` only — never ``kill``, which would take the test
  process with it, and never ``fail`` on ``shm.unlink``, which orphans a
  segment *by construction*).
* **subprocess kill-cycles** (``kill_cycles=True``): one ``repro serve
  --ledger`` process is spawned with a randomized ``REPRO_FAULTS`` schedule
  that may include a ``kill`` inside a release's store transaction or just
  after its commit; the harness measures over HTTP, every op at a fresh ε
  so that it reaches the charge, SIGKILLs the server between cycles,
  restarts it on the same ledger, and verifies the same invariants at the
  end.  A scheduled kill that never fired is a violation too: a cycle that
  did not crash proves nothing about recovery.

Shell entry point: ``python -m repro chaos --seed 1234 --steps 50``
(non-zero exit status when any invariant is violated).
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..exceptions import ChaosInvariantError, ReproError
from .deadline import Deadline
from .faults import ENV_VAR, FaultPlan, FaultRule, active_plan

__all__ = ["ChaosReport", "run_chaos"]

#: Queries driven by the harness (all hosted by default on edge sessions);
#: kept to the cheap ones so a 50-step run stays fast.
_QUERIES = ("node-count", "degree-ccdf", "wedges")
_EPSILONS = (0.05, 0.1, 0.2)

#: Error codes that are raised *before* admission ever reaches the budget
#: ledger — they cannot possibly have charged, so their keys need no
#: re-measure before the exact accounting check.
_NO_CHARGE_CODES = {
    "circuit_open",
    "rate_limited",
    "overloaded",
    "deadline_exceeded",
    "invalid_epsilon",
    "invalid_plan",
    "service_error",
    "session_exists",
}

#: Fault points an in-process schedule may draw from, with the actions that
#: are safe there.  ``kill`` is reserved for subprocess mode (an in-process
#: SIGKILL takes the harness with it) and ``shm.unlink`` only gets ``delay``
#: (a ``fail`` there leaks the segment by construction — that scenario is
#: covered deterministically by the unit tests instead).
_INPROCESS_POINTS = {
    "wal.intent_commit": ("fail", "delay"),
    "wal.pre_commit": ("fail", "delay"),
    "wal.post_commit": ("fail", "delay"),
    "pool.dispatch": ("fail", "delay"),
    "pool.heartbeat": ("fail",),
    "pool.worker": ("fail", "delay"),
    "shm.attach": ("fail",),
    "shm.unlink": ("delay",),
}

#: Per-operation liveness bound (invariant 3): generous enough for a cold
#: sharded pool boot under injected delays, far below a real deadlock.
_LIVENESS_TIMEOUT = 60.0


def _measure_live(service, *args, **kwargs):
    """``service.measure(*args, **kwargs)``, or :class:`TimeoutError` once it
    has run for ``_LIVENESS_TIMEOUT`` seconds.

    A measurement runs on the thread that asks for it, so the harness asks
    on a thread of its own and keeps the clock.  A stuck call is left
    running.
    """
    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-chaos")
    try:
        return pool.submit(service.measure, *args, **kwargs).result(
            timeout=_LIVENESS_TIMEOUT
        )
    finally:
        pool.shutdown(wait=False)


def _stuck(what: str) -> str:
    return (
        f"liveness: {what} did not resolve within {_LIVENESS_TIMEOUT:g}s — "
        f"stuck service or pool"
    )


@dataclass
class ChaosReport:
    """Outcome of one chaos run: counters plus any invariant violations."""

    seed: int
    steps: int
    mode: str
    ops: int = 0
    acked: int = 0
    failed: int = 0
    refused: int = 0
    cached_hits: int = 0
    restarts: int = 0
    kills_scheduled: int = 0
    kills_fired: int = 0
    violations: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_violated(self) -> None:
        """Raise :class:`ChaosInvariantError` when any invariant failed."""
        if self.violations:
            raise ChaosInvariantError(self.summary())

    def summary(self) -> str:
        lines = [
            f"chaos {self.mode}: seed={self.seed} steps={self.steps} "
            f"ops={self.ops} acked={self.acked} failed={self.failed} "
            f"refused={self.refused} cached={self.cached_hits} "
            f"restarts={self.restarts}"
        ]
        if self.kills_scheduled:
            lines.append(
                f"  kills: scheduled={self.kills_scheduled} fired={self.kills_fired}"
            )
        lines.extend(f"  note: {note}" for note in self.notes)
        if self.violations:
            lines.append(f"INVARIANT VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"  - {violation}" for violation in self.violations)
        else:
            lines.append(
                "all invariants held: exact ledger spend, shm cleanliness, "
                "liveness, bit-identical replay"
            )
        return "\n".join(lines)


def _shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments currently alive."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def _random_plan(rng: random.Random, plan_seed: int) -> FaultPlan:
    """One randomized in-process fault schedule (fail/delay only)."""
    rules = []
    for point, actions in _INPROCESS_POINTS.items():
        if not actions or rng.random() < 0.55:
            continue
        action = rng.choice(actions)
        value = rng.uniform(0.001, 0.02) if action == "delay" else 0.0
        rules.append(
            FaultRule(
                point=point,
                action=action,
                value=value,
                after=rng.randint(1, 2),
                every=rng.randint(1, 3),
                limit=rng.randint(1, 4),
            )
        )
    return FaultPlan(seed=plan_seed, rules=rules)


def _chaos_edges(nodes: int = 40) -> list[tuple[int, int]]:
    """A small fixed ring-with-chords graph: enough structure to exercise
    every default query, small enough that 50 steps stay quick."""
    edges = [(index, (index + 1) % nodes) for index in range(nodes)]
    edges.extend((index, (index + 2) % nodes) for index in range(nodes))
    return edges


class _Accounting:
    """The acknowledged answers and failed keys of a run, and the exact
    ε-accounting check over them."""

    def __init__(self, unit_costs: dict[str, dict[str, float]]) -> None:
        self._unit_costs = unit_costs
        self.answers: dict[tuple[str, float], list] = {}
        self.failed: set[tuple[str, float]] = set()

    def check_exact(
        self, spent: dict[str, float], report: ChaosReport, where: str
    ) -> None:
        """Durable spend is each released ``(query, ε)`` key's cost, once:
        call it after every failed key has been measured again, so that
        every acknowledged or failed key holds one release."""
        released = self.failed | self.answers.keys()
        expected: dict[str, float] = {}
        for query, epsilon in released:
            for source, unit in self._unit_costs[query].items():
                expected[source] = expected.get(source, 0.0) + unit * epsilon
        for source in sorted(set(spent) | set(expected)):
            actual, want = spent.get(source, 0.0), expected.get(source, 0.0)
            if abs(actual - want) > 1e-6:
                report.violations.append(
                    f"{'phantom' if actual > want else 'lost'} ε ({where}): "
                    f"source {source!r} durably spent {actual:.6f}, but the "
                    f"{len(released)} released (query, ε) keys cost {want:.6f}"
                )


def _spent_by_source(budget: dict[str, dict[str, float]]) -> dict[str, float]:
    return {source: row.get("spent", 0.0) for source, row in budget.items()}


# ----------------------------------------------------------------------
# In-process mode
# ----------------------------------------------------------------------
def _run_inprocess(
    seed: int, steps: int, executor: str, verbose: bool
) -> ChaosReport:
    from ..service.core import MeasurementService

    report = ChaosReport(seed=seed, steps=steps, mode=f"in-process[{executor}]")
    rng = random.Random(seed)
    shm_before = _shm_segments()
    tmpdir = tempfile.mkdtemp(prefix="repro-chaos-")
    saved_env = {
        key: os.environ.get(key)
        for key in (ENV_VAR, "REPRO_SHARD_MIN_ROWS", "REPRO_SHARD_PROCESSES")
    }
    service = None
    try:
        if executor == "sharded":
            # Tiny inputs must still shard, with a small worker pool; arm the
            # spawned workers themselves with an occasional worker-side fault
            # (they self-install from the environment at import).
            os.environ["REPRO_SHARD_MIN_ROWS"] = "1"
            os.environ["REPRO_SHARD_PROCESSES"] = "2"
            worker_plan = FaultPlan(
                seed=seed,
                rules=[FaultRule("pool.worker", "fail", after=3, every=5, limit=4)],
            )
            os.environ[ENV_VAR] = worker_plan.to_env()
        ledger = os.path.join(tmpdir, "chaos-ledger.db")
        service = MeasurementService(
            ledger_path=ledger,
            breaker_threshold=3,
            breaker_reset=0.2,
        )
        service.create_session(
            "chaos",
            _chaos_edges(),
            total_epsilon=1e9,
            seed=seed,
            executor=executor,
        )
        unit_costs = {
            query: service.session("chaos").queryable(query).privacy_cost(1.0)
            for query in _QUERIES
        }
        accounting = _Accounting(unit_costs)

        for step in range(steps):
            plan = _random_plan(rng, plan_seed=seed * 1_000_003 + step)
            query = rng.choice(_QUERIES)
            epsilon = rng.choice(_EPSILONS)
            deadline = None
            if rng.random() < 0.1:
                # Occasionally submit an already-expired deadline: it must be
                # refused at admission without charging anything.
                deadline = Deadline.after(0.0)
            report.ops += 1
            with active_plan(plan):
                try:
                    answer = _measure_live(
                        service, "chaos", query, epsilon, deadline=deadline
                    )
                except TimeoutError:
                    report.failed += 1
                    accounting.failed.add((query, epsilon))
                    report.violations.append(
                        _stuck(f"step {step} ({query}, ε={epsilon})")
                    )
                    break
                except ReproError as exc:
                    code = getattr(exc, "code", None)
                    if code in _NO_CHARGE_CODES:
                        report.refused += 1
                        if deadline is not None and code != "deadline_exceeded":
                            report.notes.append(
                                f"step {step}: expired deadline surfaced as "
                                f"{code} (expected deadline_exceeded)"
                            )
                    else:
                        report.failed += 1
                        accounting.failed.add((query, epsilon))
                    continue
            if deadline is not None:
                report.violations.append(
                    f"deadline: step {step} ({query}, ε={epsilon}) was "
                    f"admitted despite an already-expired deadline"
                )
            key = (query, epsilon)
            values = list(answer.result.items())
            if key in accounting.answers:
                report.cached_hits += 1
                if values != accounting.answers[key]:
                    report.violations.append(
                        f"replay: step {step} ({query}, ε={epsilon}) returned "
                        f"different values than the acknowledged release"
                    )
                if answer.charged:
                    report.violations.append(
                        f"phantom ε: step {step} re-charged the already "
                        f"released ({query}, ε={epsilon})"
                    )
            else:
                accounting.answers[key] = values
                report.acked += 1
            if verbose:
                print(
                    f"chaos step {step}: {query} ε={epsilon} "
                    f"charged={answer.charged} cached={answer.cached} "
                    f"faults={plan.stats()}",
                    file=sys.stderr,
                )

        service.shutdown()
        service = None

        # Reopen: the ledger must replay every acknowledged answer from its
        # durable release, and hold every committed charge and nothing else.
        reopened = MeasurementService(ledger_path=ledger)
        service = reopened
        budget = reopened.session("chaos").budget_report()
        for (query, epsilon), values in accounting.answers.items():
            try:
                answer = _measure_live(reopened, "chaos", query, epsilon)
            except TimeoutError:
                report.violations.append(
                    _stuck(f"the replay of ({query}, ε={epsilon}) after reopen")
                )
                break
            if list(answer.result.items()) != values:
                report.violations.append(
                    f"replay: ({query}, ε={epsilon}) not bit-identical after "
                    f"ledger reopen"
                )
            if answer.charged:
                report.violations.append(
                    f"phantom ε: replay of ({query}, ε={epsilon}) charged "
                    f"again after ledger reopen"
                )
        budget_after = reopened.session("chaos").budget_report()
        if _spent_by_source(budget_after) != _spent_by_source(budget):
            report.violations.append(
                "phantom ε: replaying acknowledged answers changed the "
                "durable spend"
            )
        # A failed key holds a release or nothing: measured again, it
        # replays the one or pays for its first.
        for query, epsilon in sorted(accounting.failed - accounting.answers.keys()):
            _measure_live(reopened, "chaos", query, epsilon)
        accounting.check_exact(
            _spent_by_source(reopened.session("chaos").budget_report()),
            report,
            "after ledger reopen",
        )
        reopened.shutdown()
        service = None
    finally:
        if service is not None:
            try:
                service.shutdown()
            except Exception:  # noqa: BLE001 - best-effort cleanup
                pass
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutil.rmtree(tmpdir, ignore_errors=True)

    leaked = _shm_segments() - shm_before
    if leaked:
        report.violations.append(
            f"shm: {len(leaked)} orphaned /dev/shm segment(s) after "
            f"shutdown: {sorted(leaked)}"
        )
    return report


# ----------------------------------------------------------------------
# Subprocess kill-cycle mode
# ----------------------------------------------------------------------
def _read_banner(proc: subprocess.Popen, timeout: float) -> str:
    """The ``repro serve`` banner line of ``proc``'s stdout, read against a deadline.

    Lines ahead of it (runtime warnings) are skipped.  Raises
    :class:`RuntimeError` when the server exits first or prints no banner
    within ``timeout`` seconds; the caller then stops the server, which ends
    the reader thread.
    """
    found: list[str] = []

    def scan() -> None:
        for line in iter(proc.stdout.readline, ""):
            if "listening on" in line:
                found.append(line)
                return

    reader = threading.Thread(target=scan, name="repro-banner", daemon=True)
    reader.start()
    reader.join(timeout)
    if found:
        return found[0]
    if reader.is_alive():
        raise RuntimeError(f"repro serve printed no banner within {timeout:g}s")
    raise RuntimeError(f"repro serve exited ({proc.poll()}) before printing its banner")


def _spawn_serve(ledger: str, faults: str | None) -> tuple[subprocess.Popen, str]:
    """Start ``repro serve`` in its own process group; returns (proc, url)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path
        for path in [
            os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            env.get("PYTHONPATH", ""),
        ]
        if path
    )
    if faults:
        env[ENV_VAR] = faults
    else:
        env.pop(ENV_VAR, None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--ledger", ledger],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        line = _read_banner(proc, _LIVENESS_TIMEOUT)
    except RuntimeError:
        _kill_group(proc)
        raise
    url = "http://" + line.split("http://", 1)[1].split()[0].rstrip("/),")
    return proc, url


def _kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL the serve process and anything it started in its group."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:  # pragma: no cover - defensive
        pass


def _subprocess_faults(rng: random.Random, cycle_seed: int, ops: int) -> FaultPlan:
    """A randomized fault schedule for one serve incarnation of ``ops`` ops.

    May include a ``kill`` inside a release's store transaction or just
    after its commit — the sharpest crash-consistency probes there are —
    plus transient ledger failures (a ``fail`` after the commit reaches the
    client, which leaves a release it never saw) and a dropped HTTP
    response (release committed, ack lost).  Every op is charged and passes
    each of the three points once (a ``fail`` before the commit fires at
    most every other hit, so the service's retry gets through), so a kill
    by the ``ops``-th hit fires.  A plan holds one rule per point: the
    ``fail`` takes a point the kill left.
    """
    rules = []
    points = ["wal.intent_commit", "wal.pre_commit", "wal.post_commit"]
    rng.shuffle(points)
    if ops >= 1 and rng.random() < 0.5:
        rules.append(FaultRule(points.pop(), "kill", after=rng.randint(1, ops), limit=1))
    if rng.random() < 0.6:
        rules.append(
            FaultRule(
                points.pop(), "fail", after=rng.randint(1, 3), every=rng.randint(2, 4),
                limit=rng.randint(1, 3),
            )
        )
    if rng.random() < 0.5:
        rules.append(
            FaultRule(
                "http.write", "fail", after=rng.randint(2, 5),
                every=rng.randint(3, 5), limit=rng.randint(1, 2),
            )
        )
    return FaultPlan(seed=cycle_seed, rules=rules)


def _run_subprocess(seed: int, steps: int, verbose: bool) -> ChaosReport:
    from ..service.http import ServiceClient
    from ..service.registry import default_query_builders

    report = ChaosReport(seed=seed, steps=steps, mode="subprocess[kill-cycles]")
    rng = random.Random(seed)
    shm_before = _shm_segments()
    tmpdir = tempfile.mkdtemp(prefix="repro-chaos-")
    ledger = os.path.join(tmpdir, "chaos-ledger.db")

    # Unit ε costs are data-independent: derive them from a throwaway
    # session over an empty dataset.
    from ..core import PrivacySession

    throwaway = PrivacySession()
    empty = throwaway.protect("edges", [])
    builders = default_query_builders()
    unit_costs = {
        query: builders[query](empty).privacy_cost(1.0) for query in _QUERIES
    }
    accounting = _Accounting(unit_costs)

    connection_errors = OSError  # refused, reset, dropped or timed out
    cycles = max(2, min(4, steps // 10))
    per_cycle = -(-steps // cycles)
    proc = None
    try:
        edges = [list(edge) for edge in _chaos_edges()]
        done = 0
        cycle = 0
        # A cycle cut short by its kill leaves its ops to the next one, so the
        # run restarts until every op is done.
        while done < steps:
            budget = min(steps, (cycle + 1) * per_cycle) - done
            plan = _subprocess_faults(rng, seed * 7919 + cycle, budget)
            kill = next(
                (rule for rule in plan.rules.values() if rule.action == "kill"), None
            )
            report.kills_scheduled += kill is not None
            proc, url = _spawn_serve(ledger, plan.to_env())
            if cycle > 0:
                report.restarts += 1
            client = ServiceClient(url, timeout=_LIVENESS_TIMEOUT)
            if cycle == 0:
                from ..exceptions import SessionExistsError

                for attempt in range(5):
                    try:
                        client.create_session(
                            "chaos", edges, total_epsilon=1e9, seed=seed
                        )
                        break
                    except SessionExistsError:
                        break
                    except connection_errors:
                        if attempt == 4:
                            raise
                        time.sleep(0.2)
            server_alive = True
            while server_alive and done < min(steps, (cycle + 1) * per_cycle):
                query = rng.choice(_QUERIES)
                report.ops += 1
                done += 1
                # Fresh for the whole run: the op is charged, not replayed.
                epsilon = done / 1000
                start = time.monotonic()
                while True:
                    try:
                        payload = client.measure("chaos", query, epsilon)
                    except connection_errors:
                        # The server died (kill schedule fired) or the
                        # response was dropped after the work was done: the
                        # outcome of this attempt is unknown — the final
                        # incarnation measures it again — so move on.
                        report.failed += 1
                        accounting.failed.add((query, epsilon))
                        if proc.poll() is not None:
                            server_alive = False
                            break
                        if time.monotonic() - start > _LIVENESS_TIMEOUT:
                            report.violations.append(
                                f"liveness: op {done} ({query}, ε={epsilon}) "
                                f"kept failing for {_LIVENESS_TIMEOUT:g}s "
                                f"while the server stayed up"
                            )
                            server_alive = False
                            break
                        time.sleep(0.05)
                        continue
                    except ReproError as exc:
                        code = getattr(exc, "code", None)
                        if code in _NO_CHARGE_CODES:
                            report.refused += 1
                        else:
                            report.failed += 1
                            accounting.failed.add((query, epsilon))
                        break
                    key = (query, epsilon)
                    values = payload["values"]
                    if key in accounting.answers:
                        report.cached_hits += 1
                        if values != accounting.answers[key]:
                            report.violations.append(
                                f"replay: op {done} ({query}, ε={epsilon}) "
                                f"differs from the acknowledged release"
                            )
                        if payload["charged"]:
                            report.violations.append(
                                f"phantom ε: op {done} re-charged the "
                                f"released ({query}, ε={epsilon})"
                            )
                    else:
                        accounting.answers[key] = values
                        report.acked += 1
                    break
                if verbose and done % 10 == 0:
                    print(
                        f"chaos cycle {cycle}: {done}/{steps} ops",
                        file=sys.stderr,
                    )
            client.close()
            if kill is not None:
                if proc.poll() == -signal.SIGKILL:
                    report.kills_fired += 1
                else:
                    report.violations.append(
                        f"kill: cycle {cycle}'s {kill.spec()} never fired in "
                        f"{budget} ops"
                    )
            _kill_group(proc)
            proc = None
            cycle += 1

        # Final incarnation, faults off: replay + accounting verification.
        proc, url = _spawn_serve(ledger, faults=None)
        report.restarts += 1
        client = ServiceClient(url, timeout=_LIVENESS_TIMEOUT)
        budget = client.budget("chaos")
        for (query, epsilon), values in accounting.answers.items():
            payload = client.measure("chaos", query, epsilon)
            if payload["values"] != values:
                report.violations.append(
                    f"replay: ({query}, ε={epsilon}) not bit-identical "
                    f"after crash recovery"
                )
            if payload["charged"]:
                report.violations.append(
                    f"phantom ε: replay of ({query}, ε={epsilon}) charged "
                    f"again after crash recovery"
                )
        report.notes.append(
            f"{len(accounting.answers)} answers replayed after recovery"
        )
        budget_after = client.budget("chaos")
        if _spent_by_source(budget_after) != _spent_by_source(budget):
            report.violations.append(
                "phantom ε: replaying acknowledged answers changed the "
                "durable spend"
            )
        # A failed key holds a release or nothing: measured again, it
        # replays the one or pays for its first, so afterwards every key
        # holds one release, paid for once.
        for query, epsilon in sorted(accounting.failed - accounting.answers.keys()):
            client.measure("chaos", query, epsilon)
        accounting.check_exact(
            _spent_by_source(client.budget("chaos")),
            report,
            "after kill-cycle recovery",
        )
        client.close()
        # Graceful shutdown this time: SIGTERM drains and closes the ledger.
        try:
            os.killpg(proc.pid, signal.SIGTERM)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            report.violations.append(
                "liveness: graceful shutdown (SIGTERM) did not complete "
                "within 30s"
            )
        proc = None
    finally:
        if proc is not None:
            _kill_group(proc)
        shutil.rmtree(tmpdir, ignore_errors=True)

    leaked = _shm_segments() - shm_before
    if leaked:
        report.violations.append(
            f"shm: {len(leaked)} orphaned /dev/shm segment(s) after "
            f"shutdown: {sorted(leaked)}"
        )
    return report


# ----------------------------------------------------------------------
def run_chaos(
    seed: int = 0,
    steps: int = 50,
    kill_cycles: bool = False,
    executor: str = "eager",
    verbose: bool = False,
) -> ChaosReport:
    """Run one chaos campaign and return its :class:`ChaosReport`.

    ``kill_cycles`` selects the subprocess kill-cycle mode (a real
    ``repro serve --ledger`` process, SIGKILLed between cycles); otherwise
    the service is driven in-process with per-step fault schedules.
    ``executor`` applies to the in-process session (``"sharded"`` exercises
    the pool/shm fault points and the inline degrade path).
    """
    if steps < 1:
        raise ValueError("chaos needs at least 1 step")
    if kill_cycles:
        return _run_subprocess(seed, steps, verbose)
    return _run_inprocess(seed, steps, executor, verbose)
