"""Tests for the durable measurement service: restarts, admission, shutdown.

Exercises :class:`~repro.service.core.MeasurementService` with a ledger file:
sessions, budgets, released answers and the audit log all survive a restart;
the audit sequence is totally ordered across restarts; rate limiting and load
shedding refuse correctly; and ``repro serve --ledger`` shuts down gracefully
on SIGTERM and recovers its spend after SIGKILL (subprocess tests).
"""

from __future__ import annotations

import json
import os
import signal
import sqlite3
import subprocess
import sys
import threading
import time

import pytest

from repro.exceptions import (
    FaultInjectedError,
    InvalidEpsilonError,
    PersistenceError,
    RateLimitedError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.persistence import LedgerStore
from repro.service import MeasurementService

EDGES = [(i, i + 1) for i in range(30)] + [(0, 2), (1, 3), (2, 4)]

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


@pytest.fixture()
def ledger_path(tmp_path):
    return str(tmp_path / "ledger.db")


def _service(ledger_path, **kwargs):
    return MeasurementService(ledger_path=ledger_path, **kwargs)


# ----------------------------------------------------------------------
# Restart recovery through the service facade
# ----------------------------------------------------------------------
class TestServiceRestart:
    def test_session_budget_and_answers_survive_restart(self, ledger_path):
        service = _service(ledger_path)
        service.create_session("acme", EDGES, total_epsilon=1.0, seed=7)
        first = service.measure("acme", "node-count", 0.25)
        report = service.budget_report("acme")
        service.shutdown()

        restarted = _service(ledger_path)
        try:
            assert [s["name"] for s in restarted.sessions()] == ["acme"]
            assert restarted.budget_report("acme") == report
            # The released answer replays bit-identically at zero charge.
            replay = restarted.measure("acme", "node-count", 0.25)
            assert replay.cached
            assert dict(replay.result.items()) == dict(first.result.items())
            assert restarted.budget_report("acme") == report
        finally:
            restarted.shutdown()

    def test_replay_after_reopen_reads_the_durable_release(self, ledger_path):
        """Boot leaves the answer cache empty; the first replay of a release
        made before the restart reads it from the store: free, cached, and
        the same floats to the bit."""
        service = _service(ledger_path)
        service.create_session("acme", EDGES, total_epsilon=1.0, seed=7)
        first = service.measure("acme", "degree-ccdf", 0.25)
        service.shutdown()

        restarted = _service(ledger_path)
        try:
            spent = restarted.budget_report("acme")["edges"]["spent"]
            assert len(restarted.cache) == 0
            replay = restarted.measure("acme", "degree-ccdf", 0.25)
            assert replay.cached and replay.charged == {}
            assert [(r, v.hex()) for r, v in replay.result.items()] == [
                (r, v.hex()) for r, v in first.result.items()
            ]
            assert restarted.budget_report("acme")["edges"]["spent"] == spent
            assert len(restarted.cache) == 1
        finally:
            restarted.shutdown()

    def test_closed_session_budget_resumes_under_same_name(self, ledger_path):
        service = _service(ledger_path)
        service.create_session("acme", EDGES, total_epsilon=1.0, seed=7)
        service.measure("acme", "node-count", 0.25)
        service.close_session("acme")
        assert "acme" not in [s["name"] for s in service.sessions()]

        # Spent ε is a property of the protected data: re-creating the name
        # resumes the committed spend instead of resetting the guarantee.
        service.create_session("acme", EDGES, total_epsilon=1.0, seed=7)
        assert service.budget_report("acme")["edges"]["spent"] == pytest.approx(0.25)
        service.shutdown()

    def test_conflicting_total_after_restart_is_refused(self, ledger_path):
        service = _service(ledger_path)
        service.create_session("acme", EDGES, total_epsilon=1.0, seed=7)
        service.close_session("acme")
        with pytest.raises(InvalidEpsilonError, match="conflicting"):
            service.create_session("acme", EDGES, total_epsilon=5.0, seed=7)
        service.shutdown()

    def test_unserializable_sessions_stay_ephemeral(self, ledger_path):
        from repro.core.executor import EagerExecutor

        service = _service(ledger_path)
        # A callable executor factory cannot be persisted; the session still
        # works (with full budget durability), it just does not survive a
        # restart.
        service.create_session(
            "ephemeral",
            EDGES,
            total_epsilon=1.0,
            seed=7,
            executor=lambda environment: EagerExecutor(environment),
        )
        assert service.store.get_session("ephemeral") is None
        service.measure("ephemeral", "node-count", 0.25)
        assert service.store.spent("ephemeral")["edges"] == pytest.approx(0.25)
        service.shutdown()

    def test_a_second_service_on_a_held_ledger_is_refused(self, ledger_path):
        service = _service(ledger_path)
        try:
            service.create_session("acme", EDGES, total_epsilon=1.0, seed=7)
            with pytest.raises(PersistenceError, match="held by another open store"):
                _service(ledger_path)
            # The refusal left the holder serving.
            assert not service.measure("acme", "node-count", 0.25).cached
        finally:
            service.shutdown()
        restarted = _service(ledger_path)
        try:
            assert restarted.registry.names() == ["acme"]
        finally:
            restarted.shutdown()

    def test_a_service_that_fails_to_build_releases_its_ledger(self, ledger_path):
        import socket

        from repro.service import serve

        # The scheduler refuses max_pending=0 after the store has opened.
        with pytest.raises(ValueError, match="max_pending"):
            _service(ledger_path, max_pending=0)
        # serve() opens the ledger, then finds its port taken.
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            with pytest.raises(OSError):
                serve(port=taken.getsockname()[1], ledger=ledger_path)
        held = serve(port=0, ledger=ledger_path)
        try:
            with pytest.raises(PersistenceError):
                serve(port=0, ledger=ledger_path)
        finally:
            held.stop_serving()
        _service(ledger_path).shutdown()

    def test_rematerialized_sessions_never_share_noise_draws(self, ledger_path):
        """A restored seeded session must not resume the creator's stream.

        If re-materialisation reused the raw seed, a restart (or a second
        registry over the store) would re-draw noise values already released
        for earlier measurements, and an analyst could difference two releases sharing
        a draw to cancel the noise exactly.  Every incarnation must draw
        from its own stream.
        """
        from repro.service.registry import SessionRegistry

        with LedgerStore(ledger_path) as store:
            creator = SessionRegistry(store=store)
            creator.create("acme", EDGES, total_epsilon=1.0, seed=7)
            # Fresh registries over the same store take a restarted
            # process's code path: each re-materialises the session it finds.
            incarnation_a = SessionRegistry(store=store).get("acme")
            incarnation_b = SessionRegistry(store=store).get("acme")
            draws = {
                tuple(hosted.session.noise.sample_many(1.0, 8))
                for hosted in (creator.get("acme"), incarnation_a, incarnation_b)
            }
            assert len(draws) == 3
            # Each re-materialisation advanced the durable counter.
            assert store.next_incarnation("acme") == 3

    def test_ledger_without_generation_column_still_evicts(self, ledger_path):
        """A ledger file written before ``sessions`` had a ``generation``
        column (the column is gone again) serves its session from the file.
        A close evicts the replica and its cached answers, and the re-created
        definition gets a ``generation`` stamp of its own in its payload."""
        legacy = sqlite3.connect(ledger_path)
        legacy.execute(
            "CREATE TABLE sessions (name TEXT PRIMARY KEY, "
            "created_at REAL NOT NULL, payload TEXT NOT NULL)"
        )
        payload = {
            "records": [[list(edge), 1.0] for edge in EDGES],
            "total_epsilon": 1.0,
            "seed": 7,
            "executor": "eager",
            "source": "edges",
            "generation": "stamped-before-the-column",
        }
        legacy.execute(
            "INSERT INTO sessions VALUES ('acme', 0.0, ?)", (json.dumps(payload),)
        )
        legacy.commit()
        legacy.close()

        service = _service(ledger_path)
        try:
            replica = service.session("acme")
            assert not service.measure("acme", "node-count", 0.25).cached
            assert service.session("acme") is replica
            assert service.measure("acme", "node-count", 0.25).cached

            service.close_session("acme")
            with pytest.raises(ServiceError, match="no session"):
                service.measure("acme", "node-count", 0.25)
            service.create_session(
                "acme", [(i, i + 1) for i in range(5)], total_epsilon=1.0, seed=7
            )
            answer = service.measure("acme", "node-count", 0.25)
            assert not answer.cached
            assert answer.charged
            assert len(service.session("acme").session.dataset("edges")) == 5
        finally:
            service.shutdown()
        check = sqlite3.connect(ledger_path)
        try:
            [(text,)] = check.execute("SELECT payload FROM sessions").fetchall()
        finally:
            check.close()
        assert json.loads(text)["generation"] not in ("", "stamped-before-the-column")


# ----------------------------------------------------------------------
# Audit ordering (total order across restarts)
# ----------------------------------------------------------------------
class TestDurableAudit:
    def test_sequence_is_total_across_restarts(self, ledger_path):
        service = _service(ledger_path)
        service.create_session("acme", EDGES, total_epsilon=1.0, seed=7)
        service.measure("acme", "node-count", 0.1)
        first_run = service.audit()
        service.shutdown()

        restarted = _service(ledger_path)
        try:
            restarted.measure("acme", "node-count", 0.2)
            merged = restarted.audit()
        finally:
            restarted.shutdown()

        sequences = [event.sequence for event in merged]
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == len(sequences)
        # Pre-restart events are a prefix of the merged durable log.
        assert sequences[: len(first_run)] == [e.sequence for e in first_run]
        assert max(e.sequence for e in first_run) < merged[-1].sequence
        assert all(event.timestamp > 0 for event in merged)
        assert all(event.worker == os.getpid() for event in merged)

    def test_session_slice_preserves_global_sequence(self, ledger_path):
        service = _service(ledger_path)
        service.create_session("a", EDGES, total_epsilon=1.0, seed=1)
        service.create_session("b", EDGES, total_epsilon=1.0, seed=2)
        service.measure("b", "node-count", 0.1)
        service.measure("a", "node-count", 0.1)
        all_events = service.audit()
        only_a = service.audit("a")
        assert [e.sequence for e in only_a] == [
            e.sequence for e in all_events if e.session == "a"
        ]
        service.shutdown()


# ----------------------------------------------------------------------
# Admission control: rate limiting and load shedding
# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_rate_limit_refuses_with_retry_after(self, ledger_path):
        service = _service(ledger_path, rate_limit=0.001, rate_burst=2.0)
        try:
            service.create_session("acme", EDGES, total_epsilon=5.0, seed=7)
            service.measure("acme", "node-count", 0.1)  # create + 1st token
            # create_session consumed no tokens; two measures drain the burst.
            service.measure("acme", "node-count", 0.2)
            with pytest.raises(RateLimitedError) as excinfo:
                service.measure("acme", "node-count", 0.3)
            assert excinfo.value.retry_after > 0
            stats = service.stats()["rate_limit"]
            assert stats["limited"] >= 1
        finally:
            service.shutdown()

    def test_rate_limit_is_per_session(self, ledger_path):
        service = _service(ledger_path, rate_limit=0.001, rate_burst=1.0)
        try:
            service.create_session("a", EDGES, total_epsilon=5.0, seed=1)
            service.create_session("b", EDGES, total_epsilon=5.0, seed=2)
            service.measure("a", "node-count", 0.1)
            with pytest.raises(RateLimitedError):
                service.measure("a", "node-count", 0.2)
            # Tenant b has its own bucket and is unaffected by a's refusal.
            service.measure("b", "node-count", 0.1)
        finally:
            service.shutdown()

    def test_unknown_session_never_allocates_rate_bucket(self, ledger_path):
        """Garbage session names must not grow the token-bucket map.

        Buckets are only reclaimed when a real session closes, so admitting
        before validating the name would let hostile or typo'd names grow
        server memory without bound.
        """
        service = _service(ledger_path, rate_limit=100.0)
        try:
            for name in ("nope", "still-nope", "nope-again"):
                with pytest.raises(ServiceError, match="no session"):
                    service.measure(name, "node-count", 0.1)
            assert service.stats()["rate_limit"]["sessions"] == 0
        finally:
            service.shutdown()

    def test_load_shedding_bounds_total_pending(self, ledger_path, monkeypatch):
        from repro.core.queryable import PrivacySession

        entered, released = threading.Event(), threading.Event()
        measure = PrivacySession.measure

        def blocked(session, *specs, **kwargs):
            entered.set()
            assert released.wait(timeout=30)
            return measure(session, *specs, **kwargs)

        service = _service(ledger_path, max_total_pending=1)
        try:
            service.create_session("acme", EDGES, total_epsilon=5.0, seed=7)
            service.create_session("beta", EDGES, total_epsilon=5.0, seed=7)
            # Hold the single pending slot with a measure blocked under
            # acme's lock: the bound is global, so beta is shed.
            monkeypatch.setattr(PrivacySession, "measure", blocked)
            holder = threading.Thread(
                target=service.measure, args=("acme", "node-count", 0.1)
            )
            holder.start()
            assert entered.wait(timeout=30)
            with pytest.raises(ServiceOverloadedError, match="shedding"):
                service.measure("beta", "node-count", 0.1)
            released.set()
            holder.join(timeout=30)
            service.measure("beta", "node-count", 0.1)
            assert service.stats()["load_shedding"] == {
                "pending": 0, "shed": 1, "max_total": 1,
            }
        finally:
            released.set()
            service.shutdown()


# ----------------------------------------------------------------------
# Which ledger failures the scheduler retries
# ----------------------------------------------------------------------
class TestLedgerRetry:
    """A charge that failed before its transaction committed is retried; one
    that failed after the commit is not, or it would be charged twice."""

    def _measure_under(self, ledger_path, faults):
        from repro.resilience.faults import active_plan, parse_plan

        service = _service(ledger_path)
        try:
            hosted = service.create_session("acme", EDGES, total_epsilon=1.0, seed=7)
            cost = hosted.queryable("node-count").privacy_cost(0.1)["edges"]
            plan = parse_plan(faults)
            outcome = None
            with active_plan(plan):
                try:
                    outcome = service.measure("acme", "node-count", 0.1)
                except FaultInjectedError as exc:
                    outcome = exc
            spent = service.budget_report("acme")["edges"]["spent"]
            return outcome, spent, cost, plan.stats()["hits"]
        finally:
            service.shutdown()

    def test_a_failure_before_the_commit_is_retried_and_charged_once(
        self, ledger_path
    ):
        answer, spent, cost, hits = self._measure_under(
            ledger_path, "wal.pre_commit:fail@limit=1"
        )
        assert answer.charged == {"edges": pytest.approx(cost)}
        assert hits["wal.pre_commit"] == 2  # the failed attempt and its retry
        assert spent == pytest.approx(cost)

    def test_a_failure_after_the_commit_is_not_retried(self, ledger_path):
        error, spent, cost, hits = self._measure_under(
            ledger_path, "wal.post_commit:fail@limit=1"
        )
        assert isinstance(error, FaultInjectedError)
        assert error.point == "wal.post_commit"
        assert hits["wal.post_commit"] == 1  # one attempt, no retry
        assert spent == pytest.approx(cost)  # charged once, not twice

    def test_a_release_committed_before_a_failure_replays_for_free(
        self, ledger_path
    ):
        # The failure after the commit reaches the caller, but the release
        # committed with the charge: measuring again replays it.
        from repro.resilience.faults import active_plan, parse_plan

        service = _service(ledger_path)
        try:
            hosted = service.create_session("acme", EDGES, total_epsilon=1.0, seed=7)
            cost = hosted.queryable("node-count").privacy_cost(0.1)["edges"]
            with active_plan(parse_plan("wal.post_commit:fail@limit=1")):
                with pytest.raises(FaultInjectedError):
                    service.measure("acme", "node-count", 0.1)
                retry = service.measure("acme", "node-count", 0.1)
            assert retry.cached is True
            assert retry.charged == {}
            assert service.budget_report("acme")["edges"]["spent"] == pytest.approx(cost)
        finally:
            service.shutdown()

    def test_a_rolled_back_part_leaves_parallel_composition_exact(
        self, ledger_path
    ):
        # Two hosted parts of one partition compose in parallel: spend is the
        # maximum over the parts.  The first part's failed attempt rolls back
        # its charge, so it must not raise the group's maximum either, or the
        # sibling would be priced against ε the store never kept.
        from repro.resilience.faults import active_plan, parse_plan

        partitions = {}

        def part(key):
            def build(edges):
                if "p" not in partitions:
                    partitions["p"] = edges.partition(lambda e: e[0] % 2, [0, 1])
                return partitions["p"][key]

            return build

        service = _service(ledger_path)
        try:
            service.create_session(
                "acme", EDGES, total_epsilon=1.0, seed=7,
                queries={"even": part(0), "odd": part(1)},
            )
            with active_plan(parse_plan("wal.pre_commit:fail@limit=1")):
                first = service.measure("acme", "even", 0.1)
            assert first.charged == {"edges": pytest.approx(0.1)}
            sibling = service.measure("acme", "odd", 0.2)
            assert sibling.charged == {"edges": pytest.approx(0.1)}
            assert service.budget_report("acme")["edges"]["spent"] == pytest.approx(0.2)
            assert partitions["p"].group.charged() == {"edges": pytest.approx(0.2)}
        finally:
            service.shutdown()


# ----------------------------------------------------------------------
# What one request writes, read off the statements sqlite runs
# ----------------------------------------------------------------------
def _commits(statements: list[str]) -> list[list[str]]:
    """``statements`` grouped by the transaction each ran in: an explicit
    ``BEGIN`` … ``COMMIT`` (or ``ROLLBACK``), or one autocommitted write.
    Reads outside a transaction are left out."""
    commits, open_transaction = [], None
    for statement in statements:
        verb = statement.split()[0].upper()
        if verb == "BEGIN":
            open_transaction = [statement]
        elif open_transaction is not None:
            open_transaction.append(statement)
            if verb in ("COMMIT", "ROLLBACK"):
                commits.append(open_transaction)
                open_transaction = None
        elif verb in ("INSERT", "UPDATE", "DELETE"):
            commits.append([statement])
    assert open_transaction is None, "a transaction was left open"
    return commits


class TestOneTransactionPerRequest:
    def _traced(self, service, *args):
        statements: list[str] = []
        service.store._conn.set_trace_callback(statements.append)
        try:
            answer = service.measure(*args)
        finally:
            service.store._conn.set_trace_callback(None)
        return answer, _commits(statements)

    def test_a_fresh_measure_commits_once_and_a_replay_writes_its_audit_row(
        self, ledger_path
    ):
        service = _service(ledger_path)
        try:
            service.create_session("acme", EDGES, total_epsilon=1.0, seed=7)
            fresh, commits = self._traced(service, "acme", "node-count", 0.1)
            assert not fresh.cached
            (transaction,) = commits
            assert transaction[0] == "BEGIN IMMEDIATE"
            assert transaction[-1] == "COMMIT"
            writes = [s.split("(")[0].split() for s in transaction[1:-1]]
            writes = [" ".join(words[:3]) for words in writes if words[0] != "SELECT"]
            assert writes == [
                "UPDATE budgets SET", "INSERT INTO audit", "INSERT OR IGNORE",
            ]
            assert "INTO releases" in transaction[-2]

            replay, commits = self._traced(service, "acme", "node-count", 0.1)
            assert replay.cached
            ((audit,),) = commits
            assert audit.startswith("INSERT INTO audit")
        finally:
            service.shutdown()

    def test_a_refused_measure_commits_only_its_audit_row(self, ledger_path):
        from repro.exceptions import BudgetExceededError

        service = _service(ledger_path)
        try:
            service.create_session("acme", EDGES, total_epsilon=0.15, seed=7)
            service.measure("acme", "node-count", 0.1)
            statements: list[str] = []
            service.store._conn.set_trace_callback(statements.append)
            with pytest.raises(BudgetExceededError):
                service.measure("acme", "node-count", 0.09)
            service.store._conn.set_trace_callback(None)
            rolled_back, (audit,) = _commits(statements)
            assert rolled_back[0] == "BEGIN IMMEDIATE"
            assert rolled_back[-1] == "ROLLBACK"
            assert audit.startswith("INSERT INTO audit")
            assert service.budget_report("acme")["edges"]["spent"] == pytest.approx(0.1)
        finally:
            service.shutdown()


# ----------------------------------------------------------------------
# repro serve --ledger: graceful shutdown and SIGKILL recovery
# ----------------------------------------------------------------------
def _wait_for_server(client, proc, deadline=180.0):
    end = time.monotonic() + deadline
    while True:
        try:
            return client.sessions()
        except OSError:
            if proc.poll() is not None or time.monotonic() > end:
                out = proc.stdout.read() if proc.stdout else ""
                raise AssertionError(f"server did not come up: {out}")
            time.sleep(0.1)


def _wait_until(predicate, what: str, deadline: float = 60.0) -> None:
    end = time.monotonic() + deadline
    while not predicate():
        assert time.monotonic() < end, f"timed out waiting for {what}"
        time.sleep(0.01)


def _write_locked(path: str) -> bool:
    """Whether some connection holds the ledger file's write lock."""
    conn = sqlite3.connect(path, timeout=0, isolation_level=None)
    try:
        conn.execute("BEGIN IMMEDIATE")
        conn.execute("ROLLBACK")
        return False
    except sqlite3.OperationalError as exc:
        if "locked" not in str(exc):
            raise
        return True
    finally:
        conn.close()


def _refused(port: int) -> bool:
    """Whether a new connection to ``port`` is refused (no listener left)."""
    import socket

    try:
        socket.create_connection(("127.0.0.1", port), timeout=5).close()
    except ConnectionRefusedError:
        return True
    return False


def _spawn_serve(*args: str, faults: str | None = None) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    # Stdout is a pipe: the server must flush its banner itself.
    env.pop("PYTHONUNBUFFERED", None)
    if faults is not None:
        env["REPRO_FAULTS"] = faults
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="requires POSIX signals")
class TestServeDurability:
    def _port_of(self, proc: subprocess.Popen) -> int:
        from repro.resilience.chaos import _read_banner

        # Interpreter startup can be slow when the whole suite loads the
        # machine, and runtimes may emit warnings ahead of the banner: the
        # reader skips lines until it appears, and gives up after a while
        # instead of hanging on a server that never prints it.
        line = _read_banner(proc, timeout=120.0)
        return int(line.rsplit(":", 1)[1].split()[0].rstrip("/)"))

    def test_sigterm_shuts_down_gracefully_and_state_survives(self, ledger_path):
        from repro.service import ServiceClient

        proc = _spawn_serve("--port", "0", "--ledger", ledger_path)
        try:
            port = self._port_of(proc)
            client = ServiceClient(f"http://127.0.0.1:{port}")
            _wait_for_server(client, proc)
            client.create_session("acme", EDGES, total_epsilon=1.0, seed=7)
            client.measure("acme", "node-count", 0.25)
            report = client.budget("acme")
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=120) == 0
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.wait(timeout=120)

        # Graceful shutdown closed cleanly; everything is recoverable from
        # the file alone.
        with LedgerStore(ledger_path) as store:
            assert store.session_names() == ["acme"]
            assert store.spent("acme")["edges"] == pytest.approx(
                report["edges"]["spent"]
            )

    def test_kill9_then_restart_preserves_remaining_epsilon(self, ledger_path):
        from repro.service import ServiceClient

        proc = _spawn_serve("--port", "0", "--ledger", ledger_path)
        try:
            port = self._port_of(proc)
            client = ServiceClient(f"http://127.0.0.1:{port}")
            _wait_for_server(client, proc)
            client.create_session("acme", EDGES, total_epsilon=1.0, seed=7)
            client.measure("acme", "node-count", 0.25)
            report = client.budget("acme")
            proc.kill()  # SIGKILL: no shutdown hooks run
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:  # pragma: no cover
                proc.kill()
                proc.wait(timeout=120)

        restarted = _spawn_serve("--port", "0", "--ledger", ledger_path)
        try:
            port = self._port_of(restarted)
            client = ServiceClient(f"http://127.0.0.1:{port}")
            sessions = _wait_for_server(client, restarted)
            assert [s["name"] for s in sessions] == ["acme"]
            assert client.budget("acme") == report
            restarted.send_signal(signal.SIGTERM)
            assert restarted.wait(timeout=120) == 0
        finally:
            if restarted.poll() is None:  # pragma: no cover
                restarted.kill()
                restarted.wait(timeout=120)

    def test_stop_serves_nothing_on_an_idle_connection(self, ledger_path):
        import http.client
        import threading

        from repro.resilience.faults import FaultPlan, FaultRule
        from repro.service import ServiceClient
        from repro.service.http import _readable

        # The second charge sleeps 3 s inside its transaction, so a server
        # stopped with that charge in flight is still draining when the idle
        # connection's next request arrives.
        delay = FaultRule("wal.intent_commit", "delay", value=3.0, after=2)
        proc = _spawn_serve(
            "--port", "0", "--ledger", ledger_path,
            faults=FaultPlan(rules=[delay]).to_env(),
        )
        try:
            port = self._port_of(proc)
            client = ServiceClient(f"http://127.0.0.1:{port}")
            _wait_for_server(client, proc)
            client.create_session("acme", EDGES, total_epsilon=1.0, seed=7)
            client.measure("acme", "node-count", 0.25)
            rows = len(client.audit("acme"))
            # A second connection carries the charge.
            busy = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            replies = []

            def charge():
                body = json.dumps({"query": "node-count", "epsilon": 0.1})
                busy.request("POST", "/v1/sessions/acme/measure", body=body)
                response = busy.getresponse()
                replies.append((response.status, json.loads(response.read())))

            in_flight = threading.Thread(target=charge)
            in_flight.start()
            # The delay fires inside the charge's transaction, so the charge
            # is in it once the server holds the ledger's write lock.
            _wait_until(lambda: _write_locked(ledger_path), "the charge to start")
            proc.send_signal(signal.SIGTERM)
            # stop() shuts the idle connection's read side, so its handler
            # reads EOF and closes it; the charge is still in flight.
            idle = client._local.connection.sock
            _wait_until(lambda: _readable(idle), "the idle connection to close")
            assert in_flight.is_alive()
            # No listener is left, so the next call cannot be served on a
            # fresh connection either.
            _wait_until(lambda: _refused(port), "the server to stop listening")
            # A repeat on the idle connection would be a cache hit, which
            # writes an audit row.
            with pytest.raises(OSError):
                client.measure("acme", "node-count", 0.25)
            in_flight.join(timeout=60)
            busy.close()
            # The reply in flight was still written.
            assert replies and replies[0][0] == 200
            assert replies[0][1]["charged"] == {"edges": pytest.approx(0.1)}
            assert proc.wait(timeout=120) == 0
        finally:
            if proc.poll() is None:  # pragma: no cover
                proc.kill()
                proc.wait(timeout=120)
        with LedgerStore(ledger_path) as store:
            assert len(list(store.audit_rows("acme"))) == rows + 1

    def test_stopped_straight_after_the_banner_exits_cleanly(self, ledger_path):
        # SIGTERM as soon as the banner is read: the stop must unwind the
        # server (exit 0), not kill it by the signal's default action.
        proc = _spawn_serve("--port", "0", "--ledger", ledger_path)
        try:
            self._port_of(proc)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=120) == 0
        finally:
            if proc.poll() is None:  # pragma: no cover
                proc.kill()
                proc.wait(timeout=120)

    def test_second_server_on_one_ledger_is_refused(self, ledger_path):
        first = _spawn_serve("--port", "0", "--ledger", ledger_path)
        try:
            self._port_of(first)
            second = _spawn_serve("--port", "0", "--ledger", ledger_path)
            out, _ = second.communicate(timeout=120)
            assert second.returncode == 2
            assert "served by another process" in out
            # The lock dies with its holder, SIGKILL included.
            first.kill()
            first.wait(timeout=120)
            restarted = _spawn_serve("--port", "0", "--ledger", ledger_path)
            try:
                self._port_of(restarted)
            finally:
                restarted.send_signal(signal.SIGTERM)
                assert restarted.wait(timeout=120) == 0
        finally:
            if first.poll() is None:  # pragma: no cover
                first.kill()
                first.wait(timeout=120)

    def test_a_kill_after_the_charge_commits_does_not_charge_the_retry(
        self, ledger_path
    ):
        from repro.service import ServiceClient

        # The charge, the release row and the audit row commit together, so
        # the commit is on disk with its release when the process dies.
        proc = _spawn_serve(
            "--port", "0", "--ledger", ledger_path,
            faults="wal.post_commit:kill@after=1,limit=1",
        )
        try:
            client = ServiceClient(f"http://127.0.0.1:{self._port_of(proc)}")
            _wait_for_server(client, proc)
            client.create_session("acme", EDGES, total_epsilon=2.0, seed=7)
            with pytest.raises(OSError):
                client.measure("acme", "node-count", 0.5)
            assert proc.wait(timeout=120) == -signal.SIGKILL
        finally:
            if proc.poll() is None:  # pragma: no cover
                proc.kill()
                proc.wait(timeout=120)

        restarted = _spawn_serve("--port", "0", "--ledger", ledger_path)
        try:
            client = ServiceClient(f"http://127.0.0.1:{self._port_of(restarted)}")
            _wait_for_server(client, restarted)
            retry = client.measure("acme", "node-count", 0.5)
            spent = client.budget("acme")["edges"]["spent"]
            restarted.send_signal(signal.SIGTERM)
            assert restarted.wait(timeout=120) == 0
        finally:
            if restarted.poll() is None:  # pragma: no cover
                restarted.kill()
                restarted.wait(timeout=120)
        # One release, so one charge of node-count's ε, and the retry
        # replays it for free.
        assert spent == pytest.approx(0.5), f"retry charged {retry['charged']}"
        assert retry["cached"] is True
        assert retry["charged"] == {}

    def test_shutdown_signal_is_not_swallowed_by_the_accept_loop(self):
        # socketserver reports and swallows any Exception raised while the
        # accept loop hands a connection to its thread; a shutdown request
        # that lands there must still unwind serve_forever.
        import socket
        import threading

        from repro.service.http import ServiceHTTPServer
        from repro.cli import _ShutdownRequested

        def interrupted(request, client_address):
            raise _ShutdownRequested()

        server = ServiceHTTPServer(("127.0.0.1", 0), MeasurementService())
        server.process_request = interrupted
        # Were the request swallowed, the loop would serve on: end it from
        # outside so the test fails instead of hanging.
        watchdog = threading.Timer(10.0, server.shutdown)
        watchdog.start()
        try:
            with socket.create_connection(server.server_address[:2]):
                with pytest.raises(_ShutdownRequested):
                    server.serve_forever(poll_interval=0.05)
        finally:
            watchdog.cancel()
            server.stop()
