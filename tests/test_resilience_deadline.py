"""End-to-end deadlines: context propagation and pre-charge-only enforcement."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.columnar.specs import Field
from repro.core import PrivacySession
from repro.exceptions import DeadlineExceededError
from repro.resilience.deadline import (
    Deadline,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.service import MeasurementService, ServiceClient, serve
from repro.service.http import DEADLINE_HEADER

EDGES = [(i, i + 1) for i in range(40)] + [(0, 2), (1, 3)]


class TestDeadlineUnits:
    def test_after_remaining_expired(self):
        clock_value = [100.0]
        deadline = Deadline.after(5.0, clock=lambda: clock_value[0])
        assert deadline.remaining(clock=lambda: clock_value[0]) == pytest.approx(5.0)
        assert not deadline.expired(clock=lambda: clock_value[0])
        clock_value[0] = 106.0
        assert deadline.remaining(clock=lambda: clock_value[0]) == 0.0
        assert deadline.expired(clock=lambda: clock_value[0])

    def test_check_raises_with_location(self):
        deadline = Deadline.after(0.0)
        with pytest.raises(DeadlineExceededError, match="admission"):
            deadline.check("admission")

    def test_scope_binds_and_restores(self):
        assert current_deadline() is None
        outer = Deadline.after(60.0)
        inner = Deadline.after(30.0)
        with deadline_scope(outer):
            assert current_deadline() is outer
            with deadline_scope(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer
        assert current_deadline() is None

    def test_check_deadline_is_free_when_unset(self):
        check_deadline("anywhere")  # must not raise

    def test_check_deadline_raises_inside_expired_scope(self):
        with deadline_scope(Deadline.after(0.0)):
            with pytest.raises(DeadlineExceededError):
                check_deadline("drain")


class TestSessionDeadlines:
    def test_expired_deadline_refuses_noisy_sum_before_the_charge(self):
        session = PrivacySession(seed=0)
        edges = session.protect("edges", EDGES, total_epsilon=10.0)
        part = edges.partition(Field(0), [0, 1])[0]
        with deadline_scope(Deadline.after(0.0)):
            for queryable in (edges, part):
                with pytest.raises(DeadlineExceededError, match="pre-charge"):
                    queryable.noisy_sum(0.5)
        assert session.spent_budget("edges") == 0.0
        assert part.partition_group.charged() == {}
        # Outside the expired scope both are charged as usual.
        edges.noisy_sum(0.5)
        part.noisy_sum(0.5)
        assert session.spent_budget("edges") == 1.0


class TestServiceDeadlines:
    def test_expired_deadline_refused_at_admission_without_charge(self):
        service = MeasurementService()
        try:
            service.create_session("dl", EDGES, total_epsilon=1.0, seed=0)
            with pytest.raises(DeadlineExceededError):
                service.measure("dl", "node-count", 0.1, deadline=Deadline.after(0.0))
            assert service.budget_report("dl")["edges"]["spent"] == 0.0
            # The same request with room to run charges normally.
            ok = service.measure(
                "dl", "node-count", 0.1, deadline=Deadline.after(60.0)
            )
            assert ok.charged == {"edges": pytest.approx(0.1)}
            assert service.budget_report("dl")["edges"]["spent"] == pytest.approx(0.1)
        finally:
            service.shutdown()

    def test_service_wide_default_deadline_applies(self):
        service = MeasurementService(deadline_ms=0.0)
        try:
            service.create_session("dl", EDGES, total_epsilon=1.0, seed=0)
            with pytest.raises(DeadlineExceededError):
                service.measure("dl", "node-count", 0.1)
            assert service.budget_report("dl")["edges"]["spent"] == 0.0
            # An explicit per-request deadline overrides the default.
            ok = service.measure("dl", "node-count", 0.1, deadline=Deadline.after(60.0))
            assert ok.charged == {"edges": pytest.approx(0.1)}
        finally:
            service.shutdown()

    def test_expired_request_replays_from_cache_without_second_charge(self):
        """Budget safety: once charged, the answer is cached, so a client whose
        deadline expired retries the identical request for free."""
        service = MeasurementService()
        try:
            service.create_session("dl", EDGES, total_epsilon=1.0, seed=0)
            first = service.measure("dl", "node-count", 0.1)
            assert first.charged == {"edges": pytest.approx(0.1)}
            retry = service.measure(
                "dl", "node-count", 0.1, deadline=Deadline.after(60.0)
            )
            assert retry.cached is True
            assert retry.charged == {}
            assert retry.result is first.result  # the very released object
            assert service.budget_report("dl")["edges"]["spent"] == pytest.approx(0.1)
        finally:
            service.shutdown()


@pytest.fixture(scope="module")
def server():
    server = serve(port=0)
    server.serve_in_background()
    yield server
    server.stop()


@pytest.fixture()
def client(server):
    return ServiceClient(server.url, timeout=30.0)


class TestHttpDeadlines:
    def test_deadline_header_propagates_and_504s_without_charge(self, client):
        client.create_session("http-dl", EDGES, total_epsilon=1.0, seed=0)
        with pytest.raises(DeadlineExceededError):
            client.measure("http-dl", "node-count", 0.1, deadline_ms=0.0)
        assert client.budget("http-dl")["edges"]["spent"] == 0.0

        ok = client.measure("http-dl", "node-count", 0.1, deadline_ms=30000.0)
        assert ok["charged"] == {"edges": pytest.approx(0.1)}

        # The identical retry after the charge is free even if the client's
        # deadline is tiny on paper: the cache replays before evaluation.
        again = client.measure("http-dl", "node-count", 0.1, deadline_ms=30000.0)
        assert again["cached"] is True
        assert again["values"] == ok["values"]
        assert client.budget("http-dl")["edges"]["spent"] == pytest.approx(0.1)

    def test_malformed_deadline_header_is_a_400(self, server, client):
        client.create_session("http-bad", EDGES, total_epsilon=1.0, seed=0)
        body = json.dumps({"query": "node-count", "epsilon": 0.1}).encode()
        request = urllib.request.Request(
            f"{server.url}/v1/sessions/http-bad/measure",
            data=body,
            headers={
                "Content-Type": "application/json",
                DEADLINE_HEADER: "soon-ish",
            },
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30.0)
        assert info.value.code == 400
        payload = json.loads(info.value.read().decode())
        assert payload["code"] == "invalid_plan"
        assert client.budget("http-bad")["edges"]["spent"] == 0.0

    def test_504_payload_carries_code_and_retryable(self, server, client):
        client.create_session("http-code", EDGES, total_epsilon=1.0, seed=0)
        body = json.dumps({"query": "node-count", "epsilon": 0.1}).encode()
        request = urllib.request.Request(
            f"{server.url}/v1/sessions/http-code/measure",
            data=body,
            headers={"Content-Type": "application/json", DEADLINE_HEADER: "0"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30.0)
        assert info.value.code == 504
        payload = json.loads(info.value.read().decode())
        assert payload["code"] == "deadline_exceeded"
        assert payload["retryable"] is True
