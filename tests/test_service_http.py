"""End-to-end tests of the HTTP transport (repro serve + ServiceClient)."""

from __future__ import annotations

import http.client
import json
import os
import random
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.exceptions import (
    BudgetExceededError,
    FaultInjectedError,
    InvalidEpsilonError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.resilience.faults import FaultPlan, FaultRule, active_plan
from repro.service import MeasurementService, ServiceClient, serve
from repro.service.http import answer_to_json
from repro.service.registry import default_query_builders

EDGES = [[i, i + 1] for i in range(30)] + [[0, 2], [1, 3]]


@pytest.fixture(scope="module")
def server():
    server = serve(port=0)
    server.serve_in_background()
    yield server
    server.stop()


@pytest.fixture()
def client(server):
    client = ServiceClient(server.url, timeout=30.0)
    yield client
    client.close()


def test_health(client):
    assert client.health()["status"] == "ok"


def test_session_lifecycle_and_measurements(client):
    created = client.create_session(
        "lifecycle", EDGES, total_epsilon=1.0, seed=0
    )
    assert created["name"] == "lifecycle"
    assert "degree-ccdf" in created["queries"]

    first = client.measure("lifecycle", "node-count", 0.1)
    assert first["cached"] is False
    assert first["charged"] == {"edges": pytest.approx(0.1)}
    assert first["values"]  # released records came back

    # A retried identical request replays the released answer, free.
    again = client.measure("lifecycle", "node-count", 0.1)
    assert again["cached"] is True
    assert again["charged"] == {}
    assert again["values"] == first["values"]

    budget = client.budget("lifecycle")
    assert budget["edges"]["total"] == 1.0
    assert budget["edges"]["spent"] == pytest.approx(0.1)
    assert budget["edges"]["remaining"] == pytest.approx(0.9)

    actions = [event["action"] for event in client.audit("lifecycle")]
    assert actions == ["create-session", "measure", "cache-hit"]

    assert "lifecycle" in [s["name"] for s in client.sessions()]
    assert client.session("lifecycle")["budget"]["edges"]["spent"] == (
        pytest.approx(0.1)
    )

    client.close_session("lifecycle")
    with pytest.raises(ServiceError):
        client.session("lifecycle")


def test_stats_show_that_plan_executions_stop_growing(client):
    """Counts only cross the wire: how many exact answers are held, computed
    and reused, and which hosted queries are computed."""
    before = client.stats()["exact"]
    created = client.create_session("held", EDGES, seed=0)
    assert created["computed"] == []
    for epsilon in (0.1, 0.2, 0.3):
        assert client.measure("held", "wedges", epsilon)["cached"] is False
    after = client.stats()["exact"]
    assert after["held"] - before["held"] == len(created["queries"])
    assert after["computed"] - before["computed"] == 1
    assert after["reused"] - before["reused"] == 2
    assert client.session("held")["computed"] == ["wedges"]
    client.close_session("held")
    assert client.stats()["exact"] == before


def test_error_mapping(client):
    # Unknown session -> ServiceError (404).
    with pytest.raises(ServiceError, match="no session"):
        client.measure("missing", "node-count", 0.1)

    client.create_session("errors", EDGES, total_epsilon=0.2, seed=0)
    # Unknown query -> ServiceError (404).
    with pytest.raises(ServiceError, match="no query"):
        client.measure("errors", "nope", 0.1)
    # Bad epsilon -> InvalidEpsilonError (400).
    with pytest.raises(InvalidEpsilonError):
        client.measure("errors", "node-count", -1.0)
    # Duplicate name -> ServiceError (409).
    with pytest.raises(ServiceError, match="already exists"):
        client.create_session("errors", EDGES)
    # Budget exhaustion -> BudgetExceededError (403) with amounts attached.
    client.measure("errors", "node-count", 0.2)
    with pytest.raises(BudgetExceededError) as excinfo:
        client.measure("errors", "node-count", 0.1)
    assert excinfo.value.requested == pytest.approx(0.1)
    assert excinfo.value.remaining == pytest.approx(0.0)


def test_concurrent_http_clients_stay_exact(server, client):
    """Several HTTP clients hammering one session: exact accounting, and
    every distinct request is its own ledger-charged measure pass."""
    client.create_session("swarm", EDGES, total_epsilon=10.0, seed=0)
    before = client.stats()
    threads = 8
    per_thread = 4
    barrier = threading.Barrier(threads)
    errors: list[BaseException] = []

    def work(index: int) -> None:
        local = ServiceClient(server.url, timeout=60.0)
        barrier.wait()
        try:
            for step in range(per_thread):
                eps = 0.001 * (1 + index * per_thread + step)
                local.measure("swarm", "degree-ccdf", eps)
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)
        finally:
            local.close()

    pool = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    assert not errors, f"client raised: {errors[0]!r}"

    expected = sum(
        0.001 * (1 + i * per_thread + s)
        for i in range(threads)
        for s in range(per_thread)
    )
    budget = client.budget("swarm")["edges"]
    assert budget["spent"] == pytest.approx(expected)

    after = client.stats()
    assert after["requests"] - before["requests"] == threads * per_thread
    assert after["batches"] - before["batches"] == threads * per_thread
    assert "largest_batch" not in after


# ----------------------------------------------------------------------
# Keep-alive: one persistent connection per client thread
# ----------------------------------------------------------------------
def _spent(client, name):
    return client.budget(name)["edges"]["spent"]


def _raw_connection(server):
    host, port = server.server_address[:2]
    return http.client.HTTPConnection(host, port, timeout=30.0)


def test_sequential_calls_share_one_connection(server, client):
    before = server.http_stats()
    client.create_session("keepalive", EDGES, seed=0)
    for step in range(49):
        client.measure("keepalive", "node-count", 0.001 * (step + 1))
    # The stats request is the 51st on the same connection.
    after = client.stats()["http"]
    assert after["connections"] - before["connections"] == 1
    assert after["requests"] - before["requests"] == 51


def test_read_fault_leaves_the_next_call_on_the_connection_answered(client):
    client.create_session("readfault", EDGES, total_epsilon=1.0, seed=0)
    # The fault fires before the body is read; that body must not be parsed
    # as the connection's next request.
    with active_plan(FaultPlan(rules=[FaultRule("http.read", "fail", limit=1)])):
        with pytest.raises(FaultInjectedError) as info:
            client.measure("readfault", "node-count", 0.1)
        assert info.value.point == "http.read"
        answer = client.measure("readfault", "node-count", 0.2)
    assert answer["query"] == "node-count" and answer["epsilon"] == 0.2
    assert answer["cached"] is False and answer["values"]
    assert answer["charged"] == {"edges": pytest.approx(0.2)}
    assert _spent(client, "readfault") == pytest.approx(0.2)
    actions = [event["action"] for event in client.audit("readfault")]
    assert actions == ["create-session", "measure"]


def test_bad_content_length_closes_the_connection(server):
    raw = _raw_connection(server)
    raw.putrequest("POST", "/v1/sessions/readfault/measure")
    raw.putheader("Content-Length", "2x")
    raw.endheaders(b"{}")
    response = raw.getresponse()
    assert response.status == 400
    assert json.loads(response.read())["code"] == "invalid_plan"
    assert response.will_close
    raw.close()


def test_write_fault_drops_the_connection_and_the_next_call_reconnects(server, client):
    client.create_session("writefault", EDGES, total_epsilon=1.0, seed=0)
    acknowledged = client.measure("writefault", "node-count", 0.1)["charged"]["edges"]
    before = server.http_stats()
    # Two firings: the reply, then the error reply that replaces it.
    with active_plan(FaultPlan(rules=[FaultRule("http.write", "fail", limit=2)])):
        with pytest.raises(OSError):
            client.measure("writefault", "node-count", 0.2)
    answer = client.measure("writefault", "node-count", 0.3)
    acknowledged += answer["charged"]["edges"]
    assert answer["cached"] is False and answer["epsilon"] == 0.3
    assert server.http_stats()["connections"] - before["connections"] == 1
    # The failed call may have charged (its work was done), but only once.
    spent = _spent(client, "writefault")
    assert acknowledged - 1e-9 <= spent <= acknowledged + 0.2 + 1e-9


def test_stop_ends_idle_connections_and_serves_nothing_more():
    server = serve(port=0)
    server.serve_in_background()
    client = ServiceClient(server.url, timeout=30.0)
    client.create_session("stopped", EDGES, seed=0)
    client.measure("stopped", "node-count", 0.1)
    raw = _raw_connection(server)
    raw.request("GET", "/healthz")
    assert raw.getresponse().read()
    rows = len(server.service.audit())
    server.stop()
    # A repeat would be a cache hit, which writes an audit row.
    with pytest.raises(OSError):
        client.measure("stopped", "node-count", 0.1)
    body = json.dumps({"query": "node-count", "epsilon": 0.1})
    with pytest.raises(OSError):
        raw.request("POST", "/v1/sessions/stopped/measure", body=body)
        raw.getresponse()
    assert len(server.service.audit()) == rows
    raw.close()


def test_a_restarted_server_is_reached_on_the_first_call():
    first = serve(port=0)
    first.serve_in_background()
    port = first.server_address[1]
    client = ServiceClient(first.url, timeout=30.0)
    assert client.health()["status"] == "ok"
    first.stop()
    second = serve(port=port)
    second.serve_in_background()
    try:
        assert client.health()["status"] == "ok"
        assert second.http_stats() == {"connections": 1, "requests": 1}
    finally:
        client.close()
        second.stop()


def test_a_connection_past_fd_setsize_is_reused(server):
    resource = pytest.importorskip("resource")
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    wanted = 1200
    if hard != resource.RLIM_INFINITY and hard < wanted:
        pytest.skip(f"RLIMIT_NOFILE hard limit {hard} < {wanted}")
    resource.setrlimit(resource.RLIMIT_NOFILE, (max(soft, wanted), hard))
    filler: list[int] = []
    client = ServiceClient(server.url, timeout=30.0)
    try:
        # Take every descriptor below 1100, so the client's socket is one
        # that select() refuses.
        while not filler or filler[-1] < 1100:
            filler.append(os.open(os.devnull, os.O_RDONLY))
        before = server.http_stats()
        assert client.health()["status"] == "ok"
        assert client._local.connection.sock.fileno() >= 1024
        assert client.health()["status"] == "ok"
        after = client.stats()["http"]
        assert after["connections"] - before["connections"] == 1
    finally:
        client.close()
        for fd in filler:
            os.close(fd)
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))


def test_one_client_shared_by_four_threads(server):
    shared = ServiceClient(server.url, timeout=60.0)
    shared.create_session("shared", EDGES, total_epsilon=10.0, seed=0)
    threads, per_thread = 4, 10
    barrier = threading.Barrier(threads)
    errors: list[BaseException] = []
    before = server.http_stats()

    def work(index: int) -> None:
        barrier.wait()
        try:
            for step in range(per_thread):
                epsilon = 0.001 * (1 + index * per_thread + step)
                reply = shared.measure("shared", "degree-ccdf", epsilon)
                assert reply["epsilon"] == epsilon
                assert reply["charged"] == {"edges": pytest.approx(epsilon)}
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)
        finally:
            shared.close()

    pool = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=60.0)
        assert not thread.is_alive()
    assert not errors, f"client raised: {errors[0]!r}"
    assert server.http_stats()["connections"] - before["connections"] == threads
    expected = sum(0.001 * (1 + i) for i in range(threads * per_thread))
    assert _spent(shared, "shared") == pytest.approx(expected)
    shared.close()


# ----------------------------------------------------------------------
# Protocol conformance: the server parses HTTP itself, so stdlib clients
# and raw sockets drive it here
# ----------------------------------------------------------------------
def _socket(server):
    return socket.create_connection(server.server_address[:2], timeout=30.0)


def _read_reply(reader):
    """``(status, headers, JSON body)`` of one reply, read with the stdlib."""
    status = int(reader.readline().split()[1])
    headers = http.client.parse_headers(reader)
    body = reader.read(int(headers["Content-Length"]))
    return status, headers, json.loads(body)


def _closed(reader):
    """Whether the server has closed the connection (EOF after every reply)."""
    return reader.read() == b""


def test_an_http_1_0_request_is_answered_and_the_connection_closed(server):
    with _socket(server) as sock, sock.makefile("rb") as reader:
        sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
        status, headers, body = _read_reply(reader)
        assert (status, body["status"]) == (200, "ok")
        assert headers["Connection"] == "close"
        assert _closed(reader)


def test_connection_close_is_honoured(server):
    raw = _raw_connection(server)
    raw.request("GET", "/healthz", headers={"Connection": "close"})
    response = raw.getresponse()
    assert json.loads(response.read())["status"] == "ok"
    assert response.will_close
    raw.close()
    with _socket(server) as sock, sock.makefile("rb") as reader:
        sock.sendall(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert _read_reply(reader)[0] == 200
        assert _closed(reader)


def test_expect_100_continue_gets_continue_then_the_reply(client, server):
    client.create_session("expect", EDGES, seed=0)
    body = json.dumps({"query": "node-count", "epsilon": 0.1}).encode()
    with _socket(server) as sock, sock.makefile("rb") as reader:
        sock.sendall(
            b"POST /v1/sessions/expect/measure HTTP/1.1\r\n"
            b"Expect: 100-continue\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
        )
        assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert reader.readline() == b"\r\n"
        sock.sendall(body)
        status, _, reply = _read_reply(reader)
    assert status == 200 and reply["charged"] == {"edges": pytest.approx(0.1)}


def test_header_names_are_case_insensitive(client, server):
    client.create_session("mixedcase", EDGES, seed=0)
    body = json.dumps({"query": "node-count", "epsilon": 0.1}).encode()
    with _socket(server) as sock, sock.makefile("rb") as reader:
        sock.sendall(
            b"POST /v1/sessions/mixedcase/measure HTTP/1.1\r\n"
            b"cOnTeNt-LeNgTh: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        status, headers, reply = _read_reply(reader)
        assert status == 200 and reply["epsilon"] == 0.1
        assert "Connection" not in headers  # the body was read: kept open
        # The deadline header is found whatever its case.
        sock.sendall(
            b"POST /v1/sessions/mixedcase/measure HTTP/1.1\r\n"
            b"x-REPRO-deadline-MS: soon\r\n"
            b"CONTENT-LENGTH: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        status, _, reply = _read_reply(reader)
    assert status == 400 and "X-Repro-Deadline-Ms" in reply["error"]


def test_pipelined_requests_are_answered_in_order(client, server):
    client.create_session("pipelined", EDGES, seed=0)
    body = json.dumps({"query": "node-count", "epsilon": 0.1}).encode()
    with _socket(server) as sock, sock.makefile("rb") as reader:
        sock.sendall(
            b"POST /v1/sessions/pipelined/measure HTTP/1.1\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
            + b"GET /v1/sessions/pipelined/budget HTTP/1.1\r\n\r\n"
        )
        first = _read_reply(reader)
        second = _read_reply(reader)
    assert first[0] == 200 and first[2]["query"] == "node-count"
    assert second[0] == 200
    assert second[2]["budget"]["edges"]["spent"] == pytest.approx(0.1)


@pytest.mark.parametrize(
    "request_bytes, statuses",
    [
        (b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n", (400, 414)),
        (
            b"GET /healthz HTTP/1.1\r\n"
            + b"".join(b"X-Filler-%d: 1\r\n" % i for i in range(101))
            + b"\r\n",
            (431,),
        ),
        (b"PATCH /healthz HTTP/1.1\r\n\r\n", (501,)),
        (
            b"POST /v1/sessions HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"2\r\n{}\r\n0\r\n\r\n",
            (400,),
        ),
    ],
    ids=["long-request-line", "too-many-headers", "unknown-method", "chunked"],
)
def test_a_request_the_server_cannot_serve_gets_an_error_then_close(
    server, request_bytes, statuses
):
    with _socket(server) as sock, sock.makefile("rb") as reader:
        sock.sendall(request_bytes)
        status, headers, body = _read_reply(reader)
        assert status in statuses and body["error"]
        assert headers["Connection"] == "close"
        assert _closed(reader)


def test_urllib_posts_a_measurement(client, server):
    client.create_session("urllib", EDGES, seed=0)
    request = urllib.request.Request(
        f"{server.url}/v1/sessions/urllib/measure",
        data=json.dumps({"query": "node-count", "epsilon": 0.1}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30.0) as response:
        reply = json.loads(response.read())
    assert reply["charged"] == {"edges": pytest.approx(0.1)}
    assert reply["values"] == client.measure("urllib", "node-count", 0.1)["values"]


def test_a_reply_cut_short_raises_connection_error_and_is_not_retried():
    listener = socket.create_server(("127.0.0.1", 0))
    requests: list[bytes] = []

    def serve_one_short_reply() -> None:
        connection, _ = listener.accept()
        with connection:
            requests.append(connection.recv(65536))
            connection.sendall(
                b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n" + b'{"status": '
            )

    thread = threading.Thread(target=serve_one_short_reply)
    thread.start()
    client = ServiceClient("http://127.0.0.1:%d" % listener.getsockname()[1])
    try:
        with pytest.raises(ConnectionError, match="cut short"):
            client.health()
        thread.join(timeout=30.0)
        # A retry would be a second connection: nothing is waiting to be
        # accepted, and exactly one request arrived.
        listener.settimeout(0.2)
        with pytest.raises(socket.timeout):
            listener.accept()
        assert len(requests) == 1 and requests[0].startswith(b"GET /healthz ")
        assert client._local.connection is None
    finally:
        client.close()
        listener.close()


@pytest.mark.parametrize(
    "name",
    [
        "a\r\nb",
        "a b",
        "x HTTP/1.1\r\nContent-Length: 0\r\n\r\nDELETE /v1/sessions/victim",
        "tab\there",
        "caf\u00e9",
    ],
    ids=["crlf", "space", "smuggled-request", "tab", "non-ascii"],
)
def test_a_name_that_cannot_go_on_the_wire_is_refused_before_sending(name):
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.2)
    port = listener.getsockname()[1]
    client = ServiceClient("http://127.0.0.1:%d" % port, timeout=1.0)
    try:
        with pytest.raises(ValueError):
            client.measure(name, "node-count", 0.1)
        with pytest.raises(ValueError):
            client.budget(name)
        with pytest.raises(ValueError):
            client._request("GET", "/healthz", headers={"X-A": "1\r\nX-B: 2"})
        # Nothing connected, so nothing was sent.
        with pytest.raises(socket.timeout):
            listener.accept()
    finally:
        client.close()
        listener.close()


# ----------------------------------------------------------------------
# The wire changes nothing a measurement releases
# ----------------------------------------------------------------------
def test_served_answers_equal_the_in_process_service():
    queries = sorted(default_query_builders())
    assert len(queries) == 9
    rnd = random.Random(40)
    sequence: list[tuple[str, float]] = []
    for _ in range(40):
        if sequence and rnd.random() < 0.3:
            sequence.append(rnd.choice(sequence))
        else:
            sequence.append((rnd.choice(queries), round(rnd.uniform(0.05, 0.5), 3)))
    assert len(set(sequence)) < len(sequence)  # the sequence has repeats

    served = serve(port=0)
    served.serve_in_background()
    twin = MeasurementService()
    client = ServiceClient(served.url, timeout=60.0)
    try:
        client.create_session("twin", EDGES, seed=11)
        twin.create_session("twin", [tuple(edge) for edge in EDGES], seed=11)
        keys = ("values", "charged", "cached", "total")
        for query, epsilon in sequence:
            reply = client.measure("twin", query, epsilon)
            answer = answer_to_json(twin.measure("twin", query, epsilon))
            local = json.loads(json.dumps(answer))
            assert {key: reply[key] for key in keys} == {key: local[key] for key in keys}
    finally:
        client.close()
        served.stop()
        twin.shutdown()


@pytest.mark.parametrize("durable", [False, True], ids=["in-memory", "durable"])
def test_a_measure_after_shutdown_is_a_503_that_charges_nothing(tmp_path, durable):
    """Admission closes before the registry or the store is read: a cached
    replay and a fresh ε both get 503, in both modes, and nothing is
    charged or audited."""
    ledger = str(tmp_path / "ledger.db") if durable else None
    stopped = serve(port=0, ledger=ledger)
    stopped.serve_in_background()
    client = ServiceClient(stopped.url, timeout=30.0)
    try:
        client.create_session("closed", EDGES, total_epsilon=1.0, seed=0)
        charged = client.measure("closed", "node-count", 0.1)["charged"]
        stopped.service.shutdown()
        for epsilon in (0.1, 0.2):  # the cached replay, then a fresh ε
            request = urllib.request.Request(
                f"{stopped.url}/v1/sessions/closed/measure",
                data=json.dumps({"query": "node-count", "epsilon": epsilon}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as refused:
                urllib.request.urlopen(request, timeout=30.0)
            assert refused.value.code == 503
            assert json.loads(refused.value.read())["type"] == "ServiceOverloadedError"
            with pytest.raises(ServiceOverloadedError, match="shutting down"):
                client.measure("closed", "node-count", epsilon)
    finally:
        client.close()
        stopped.stop()
    service = MeasurementService(ledger_path=ledger) if durable else stopped.service
    try:
        spent = service.budget_report("closed")["edges"]["spent"]
        assert spent == pytest.approx(charged["edges"])
        actions = [event.action for event in service.audit("closed")]
        # (Reopening the durable ledger restores the session: not a request.)
        assert [a for a in actions if a != "restore-session"] == [
            "create-session",
            "measure",
        ]
    finally:
        if durable:
            service.shutdown()
