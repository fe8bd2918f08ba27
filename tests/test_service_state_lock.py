"""``service.state`` is held for table lookups only: never across a session
build or a measure.

One lock guards the registry's and the service's tables.  Were it held
while a session is built or a plan evaluated, every other tenant's request
would queue behind that work; a global lock around admission measured about
4x worse for light tenants while one tenant's first measure evaluated a
large plan.  Each test blocks one tenant inside that work on an event and
shows another tenant's fresh measure and replay, ``stats()`` and
``sessions()`` all complete meanwhile, with and without a durable ledger.
"""

from __future__ import annotations

import threading

import pytest

from repro.service import HostedSession, MeasurementService

EDGES = [(i, i + 1) for i in range(40)] + [(0, 2), (1, 3), (2, 4), (5, 7)]


class _Gate:
    """Blocks the first caller of :meth:`wait` until :meth:`open`."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self._open = threading.Event()

    def wait(self) -> None:
        if not self.entered.is_set():
            self.entered.set()
            # Bounded: were the other tenant stuck behind this one, the test
            # fails here instead of hanging.
            assert self._open.wait(timeout=30), "the gate was never opened"

    def open(self) -> None:
        self._open.set()


def _in_thread(call, *args, **kwargs):
    """Start ``call`` on a thread; the returned function joins it and returns
    what the call returned or the exception it raised."""
    outcome: list = []

    def run():
        try:
            outcome.append(call(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - the test inspects it
            outcome.append(exc)

    thread = threading.Thread(target=run)
    thread.start()

    def finish():
        thread.join(timeout=60)
        assert not thread.is_alive()
        return outcome[0]

    return finish


def _another_tenant_is_served(service: MeasurementService) -> None:
    fresh = service.measure("light", "node-count", 0.1)
    replay = service.measure("light", "node-count", 0.1)
    assert not fresh.cached and replay.cached
    assert replay.result is fresh.result
    assert "light" in service.stats()["sessions"]
    assert "light" in [summary["name"] for summary in service.sessions()]


@pytest.fixture(params=["memory", "durable"])
def service(request, tmp_path):
    # Durable, a fresh measure of one tenant commits a store transaction
    # while the other tenant's first evaluation is still running: no plan
    # is evaluated inside that transaction.
    if request.param == "durable":
        service = MeasurementService(ledger_path=str(tmp_path / "ledger.db"))
    else:
        service = MeasurementService()
    service.create_session("light", EDGES, total_epsilon=10.0, seed=0)
    yield service
    service.shutdown()


def test_a_session_build_does_not_hold_the_state_lock(service):
    from repro.analyses import NAMED_QUERIES

    gate = _Gate()
    node_count = NAMED_QUERIES["node-count"][1]

    def slow_builder(protected):
        gate.wait()
        return node_count(protected)

    creating = _in_thread(
        service.create_session, "building", EDGES, seed=0,
        queries={"slow": slow_builder},
    )
    try:
        assert gate.entered.wait(timeout=30)
        _another_tenant_is_served(service)
        assert "building" not in service.stats()["sessions"]  # not yet published
    finally:
        gate.open()
    assert isinstance(creating(), HostedSession)
    assert "building" in service.stats()["sessions"]


def test_a_first_measure_does_not_hold_the_state_lock(service):
    gate = _Gate()

    def slow_record(record):
        gate.wait()
        return record

    service.create_session(
        "heavy", EDGES, seed=0, queries={"slow": lambda edges: edges.select(slow_record)}
    )
    measuring = _in_thread(service.measure, "heavy", "slow", 0.1)
    try:
        # The gate is inside the held plan's first evaluation, under heavy's
        # session lock and measure lock.
        assert gate.entered.wait(timeout=30)
        _another_tenant_is_served(service)
        assert service.session("heavy").computed_queries() == []
    finally:
        gate.open()
    answer = measuring()
    assert not answer.cached and answer.charged
    assert service.session("heavy").computed_queries() == ["slow"]
