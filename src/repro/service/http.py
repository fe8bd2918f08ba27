"""Stdlib HTTP/JSON transport for the measurement service, plus a client.

No third-party dependencies: the server is a
:class:`http.server.ThreadingHTTPServer` (one handler thread per connection —
exactly what the batching scheduler wants, since concurrent handler threads
submitting against one session are fused into one executor pass), and
:class:`ServiceClient` speaks the same JSON over :mod:`http.client`.

Connections are HTTP/1.1 keep-alive: a client holds one persistent
connection per calling thread, so an analyst's requests after the first pay
no TCP connect and no new handler thread.  A request is sent at most once —
any error on a connection closes it and re-raises, and the next call opens a
fresh one.  ``/v1/stats`` counts ``http.connections`` (accepted) and
``http.requests`` (handled), so an operator can see the reuse.

Endpoints (all JSON)::

    GET    /healthz                      liveness probe
    GET    /v1/sessions                  hosted sessions + budgets
    POST   /v1/sessions                  {name, records, total_epsilon?, seed?,
                                          executor?, source?}
    GET    /v1/sessions/NAME             one session's summary
    DELETE /v1/sessions/NAME             drop a session
    GET    /v1/sessions/NAME/budget      ledger report (total/spent/remaining)
    GET    /v1/sessions/NAME/audit       that session's audit events
    POST   /v1/sessions/NAME/measure     {query, epsilon} -> released values
    GET    /v1/audit                     the full audit log
    GET    /v1/stats                     scheduler, cache, exact-answer and
                                         connection counters

Records travel as JSON arrays and are converted to tuples on the way in
(graph edges ``[u, v]`` become ``(u, v)``); released values come back as
``[record, noisy_weight]`` pairs in the canonical release order.  Error
responses carry ``{"error": message, "type": exception_name}`` and the client
re-raises the matching library exception, so retry logic can distinguish
backpressure (503, :class:`ServiceOverloadedError`) from an exhausted budget
(403, :class:`BudgetExceededError`) — and because released answers are cached,
a client that times out and retries gets the bit-identical answer without a
second charge.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import socket
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from ..exceptions import (
    BudgetExceededError,
    CircuitOpenError,
    DeadlineExceededError,
    FaultInjectedError,
    InvalidEpsilonError,
    PlanError,
    RateLimitedError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
    SessionExistsError,
)
from ..resilience.deadline import Deadline
from ..resilience.faults import inject
from ..sanitize import ordered_lock
from .core import MeasurementService
from .scheduler import MeasurementAnswer

__all__ = ["ServiceClient", "ServiceHTTPServer", "answer_to_json", "serve"]

#: HTTP request header carrying the client's end-to-end deadline budget in
#: milliseconds; parsed into a :class:`Deadline` at the transport edge.
DEADLINE_HEADER = "X-Repro-Deadline-Ms"


def records_from_json(records: Any) -> list[Any]:
    """Convert JSON-decoded records to hashable Python records.

    Lists become tuples recursively, so an edge list ``[[0, 1], [1, 2]]``
    protects as the weighted multiset ``{(0, 1), (1, 2)}``.
    """
    if not isinstance(records, list):
        raise PlanError("'records' must be a JSON array")

    def convert(value: Any) -> Any:
        if isinstance(value, list):
            return tuple(convert(element) for element in value)
        return value

    return [convert(record) for record in records]


def answer_to_json(answer: MeasurementAnswer) -> dict[str, Any]:
    """Render a scheduler answer as the measure endpoint's JSON body."""
    return {
        "session": answer.session,
        "query": answer.query,
        "epsilon": answer.epsilon,
        "cached": answer.cached,
        "batch_size": answer.batch_size,
        "charged": answer.charged,
        "values": [[record, value] for record, value in answer.result.items()],
        "total": answer.result.total(),
    }


# The central error-code → HTTP-status table.  Every service-visible
# exception carries a stable machine-readable ``code`` (see
# :mod:`repro.exceptions`); this is the single place codes become statuses,
# so no endpoint constructs 4xx/5xx responses ad hoc.
_STATUS_BY_CODE = {
    "rate_limited": 429,
    "circuit_open": 503,
    "overloaded": 503,
    "persistence_unavailable": 503,
    "budget_exceeded": 403,
    "deadline_exceeded": 504,
    "session_exists": 409,
    "invalid_epsilon": 400,
    "invalid_plan": 400,
    "fault_injected": 500,
    "service_error": 404,
}

# Fallback for exceptions without a ``code`` (stdlib errors, third parties).
_STATUS_FOR = (
    (RateLimitedError, 429),
    (ServiceOverloadedError, 503),
    (BudgetExceededError, 403),
    (ServiceError, 404),
    (InvalidEpsilonError, 400),
    (PlanError, 400),
)


def _status_for(exc: BaseException) -> int:
    code = getattr(exc, "code", None)
    if code is not None:
        status = _STATUS_BY_CODE.get(code)
        if status is not None:
            return status
    for kind, status in _STATUS_FOR:
        if isinstance(exc, kind):
            return status
    return 500


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto the server's :class:`MeasurementService`."""

    protocol_version = "HTTP/1.1"
    # A reply is two writes (headers, then body); with Nagle's algorithm the
    # second waits for the client's delayed ACK of the first.
    disable_nagle_algorithm = True
    server: "ServiceHTTPServer"

    # ------------------------------------------------------------------
    def setup(self) -> None:
        super().setup()
        self.server._track(self.connection)

    def parse_request(self) -> bool:
        self._body_read = False
        if self.server._stopping:
            # Data that reached a connection after stop() shut its read side
            # is still readable: drop it rather than serve it.
            self.close_connection = True
            return False
        if not super().parse_request():
            return False
        self.server._count_request()
        return True

    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:  # pragma: no cover - debugging aid
            super().log_message(format, *args)

    def _reply(self, payload: dict[str, Any], status: int = 200) -> None:
        # Fault point: a "fail" here drops the connection before any bytes
        # of the response are written — the client sees a connection error
        # even though the service-side work (and any budget charge) is done.
        inject("http.write")
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if not self._body_read and (
            self.headers.get("Content-Length", "0") != "0"
            or "Transfer-Encoding" in self.headers
        ):
            # The request body is still in the socket, where it would be
            # parsed as the next request line: end the connection instead.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, exc: BaseException) -> None:
        payload: dict[str, Any] = {"error": str(exc), "type": type(exc).__name__}
        code = getattr(exc, "code", None)
        if code is not None:
            payload["code"] = code
            payload["retryable"] = bool(getattr(exc, "retryable", False))
        retry_after = getattr(exc, "retry_after", None)
        if retry_after is not None:
            payload["retry_after"] = retry_after
        if isinstance(exc, BudgetExceededError):
            payload["requested"] = exc.requested
            payload["remaining"] = exc.remaining
            payload["source"] = exc.source
        if isinstance(exc, FaultInjectedError):
            payload["point"] = exc.point
        self._reply(payload, status=_status_for(exc))

    def _payload(self) -> dict[str, Any]:
        # Fault point: a request lost mid-read (client vanished, socket
        # reset) before the service layer ever sees it.
        inject("http.read")
        raw = self.headers.get("Content-Length") or "0"
        if not raw.isdecimal() or "Transfer-Encoding" in self.headers:
            raise PlanError("a request body needs a plain Content-Length header")
        body = self.rfile.read(int(raw))
        self._body_read = True
        if not body:
            return {}
        decoded = json.loads(body.decode("utf-8"))
        if not isinstance(decoded, dict):
            raise PlanError("request body must be a JSON object")
        return decoded

    def _deadline(self) -> Deadline | None:
        """The request's :class:`Deadline`, from ``X-Repro-Deadline-Ms``."""
        raw = self.headers.get(DEADLINE_HEADER)
        if raw is None:
            return None
        try:
            budget_ms = float(raw)
        except ValueError as exc:
            raise PlanError(
                f"invalid {DEADLINE_HEADER} header {raw!r}: expected a number "
                f"of milliseconds"
            ) from exc
        return Deadline.after(budget_ms / 1000.0)

    def _route(self) -> tuple[str, ...]:
        return tuple(part for part in self.path.split("?", 1)[0].split("/") if part)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server naming convention
        service = self.server.service
        route = self._route()
        try:
            if route == ("healthz",):
                self._reply({"status": "ok", "sessions": service.registry.names()})
            elif route == ("v1", "sessions"):
                self._reply({"sessions": service.sessions()})
            elif route == ("v1", "stats"):
                self._reply({**service.stats(), "http": self.server.http_stats()})
            elif route == ("v1", "audit"):
                self._reply({"events": [event.to_dict() for event in service.audit()]})
            elif len(route) == 3 and route[:2] == ("v1", "sessions"):
                self._reply(service.session(route[2]).describe())
            elif len(route) == 4 and route[:2] == ("v1", "sessions") and route[3] == "budget":
                self._reply({"budget": service.budget_report(route[2])})
            elif len(route) == 4 and route[:2] == ("v1", "sessions") and route[3] == "audit":
                events = service.audit(route[2])
                self._reply({"events": [event.to_dict() for event in events]})
            else:
                self._reply({"error": "not found", "type": "ServiceError"}, 404)
        except Exception as exc:  # noqa: BLE001 - every error becomes JSON
            self._error(exc)

    def do_POST(self) -> None:  # noqa: N802 - http.server naming convention
        service = self.server.service
        route = self._route()
        try:
            payload = self._payload()
            if route == ("v1", "sessions"):
                try:
                    name = payload["name"]
                    records = records_from_json(payload["records"])
                except KeyError as exc:
                    raise PlanError(f"missing required field {exc.args[0]!r}") from exc
                # Name conflicts raise SessionExistsError (code
                # "session_exists"), which the central status table maps to
                # 409 — no ad-hoc handling needed here.
                hosted = service.create_session(
                    name,
                    records,
                    total_epsilon=float(payload.get("total_epsilon", float("inf"))),
                    seed=payload.get("seed"),
                    executor=payload.get("executor"),
                    source=payload.get("source", "edges"),
                )
                self._reply(hosted.describe(), status=201)
            elif len(route) == 4 and route[:2] == ("v1", "sessions") and route[3] == "measure":
                try:
                    query = payload["query"]
                    epsilon = payload["epsilon"]
                except KeyError as exc:
                    raise PlanError(f"missing required field {exc.args[0]!r}") from exc
                deadline = self._deadline()
                wait = self.server.measure_timeout
                if deadline is not None:
                    remaining = deadline.remaining()
                    wait = remaining if wait is None else min(wait, remaining)
                try:
                    answer = service.measure(
                        route[2], query, epsilon, timeout=wait, deadline=deadline
                    )
                except TimeoutError as exc:
                    if deadline is not None and deadline.expired():
                        # The client's own deadline ran out while the
                        # measurement was in flight.  Whether ε was charged
                        # depends on how far the request got; if it was, the
                        # released answer is cached and an identical retry
                        # collects it free of charge.
                        raise DeadlineExceededError(
                            f"deadline expired after {wait:g}s while the "
                            f"measurement was in flight; retry the identical "
                            f"request to collect its released answer without "
                            f"additional charge"
                        ) from exc
                    # The measurement is still executing (and will charge the
                    # budget when it completes): answer retryable-503, not
                    # 500 — retrying the identical request collects the
                    # released answer from the cache at no additional charge.
                    raise ServiceOverloadedError(
                        f"measurement did not complete within "
                        f"{self.server.measure_timeout:g}s and is still "
                        f"executing; retry the identical request to collect "
                        f"its released answer without additional charge"
                    ) from exc
                self._reply(answer_to_json(answer))
            else:
                self._reply({"error": "not found", "type": "ServiceError"}, 404)
        except Exception as exc:  # noqa: BLE001 - every error becomes JSON
            self._error(exc)

    def do_DELETE(self) -> None:  # noqa: N802 - http.server naming convention
        service = self.server.service
        route = self._route()
        try:
            if len(route) == 3 and route[:2] == ("v1", "sessions"):
                service.close_session(route[2])
                self._reply({"closed": route[2]})
            else:
                self._reply({"error": "not found", "type": "ServiceError"}, 404)
        except Exception as exc:  # noqa: BLE001 - every error becomes JSON
            self._error(exc)


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`MeasurementService`.

    ``listen_socket`` adopts an already-bound, already-listening socket
    instead of binding a fresh one — the multi-process server
    (:mod:`repro.service.workers`) binds once in the parent and hands each
    forked worker the shared socket, so the kernel load-balances accepted
    connections across workers.
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: MeasurementService,
        verbose: bool = False,
        measure_timeout: float | None = 300.0,
        listen_socket=None,
    ) -> None:
        if listen_socket is not None:
            super().__init__(address, _Handler, bind_and_activate=False)
            self.socket.close()
            self.socket = listen_socket
            self.server_address = listen_socket.getsockname()
        else:
            super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose
        self.measure_timeout = measure_timeout
        self._connections_lock = ordered_lock("service.http", 8)  # lock-order: 8
        self._open: set[socket.socket] = set()
        self._closed_all = threading.Event()  # set by the last close after stop()
        self._accepted = 0
        self._handled = 0
        self._stopping = False

    def _track(self, connection: socket.socket) -> None:
        with self._connections_lock:
            self._accepted += 1
            self._open.add(connection)
            stopping = self._stopping
        if stopping:  # accepted just before stop(), which missed it
            _shut_read(connection)

    def shutdown_request(self, request: socket.socket) -> None:
        # Called on the handler's thread once it is done with the connection.
        super().shutdown_request(request)
        with self._connections_lock:
            self._open.discard(request)
            if self._stopping and not self._open:
                self._closed_all.set()

    def _count_request(self) -> None:
        with self._connections_lock:
            self._handled += 1

    def http_stats(self) -> dict[str, int]:
        """Connections accepted and requests handled since the server started.

        ``pid`` names the process the counts belong to: each worker of a
        ``repro serve --workers N`` fleet keeps its own.
        """
        with self._connections_lock:
            return {
                "pid": os.getpid(),
                "connections": self._accepted,
                "requests": self._handled,
            }

    @property
    def url(self) -> str:
        """The server's base URL (resolves port 0 to the bound port)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_in_background(self) -> threading.Thread:
        """Run ``serve_forever`` on a daemon thread (tests, benchmarks)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def stop(self) -> None:
        """Shut the listener, the open connections and the worker pool down."""
        self.shutdown()
        self.stop_serving()

    def stop_serving(self) -> None:
        """Everything :meth:`stop` does once the accept loop has ended.

        Every open connection's read side is shut: an idle one reads EOF and
        closes, a reply in flight is still written, and no further request
        is served.  Then the listener closes and the service drains.
        Returns when every connection is closed, or after a few seconds if
        a client is not reading its reply.  A forked worker, whose accept
        loop unwinds on a signal, calls this directly.
        """
        with self._connections_lock:
            self._stopping = True
            open_connections = list(self._open)
        for connection in open_connections:
            _shut_read(connection)
        self.server_close()
        self.service.shutdown()
        if open_connections:
            self._closed_all.wait(timeout=5.0)


def _shut_read(connection: socket.socket) -> None:
    try:
        connection.shutdown(socket.SHUT_RD)
    except OSError:  # already closed by its handler
        pass


def serve(
    host: str = "127.0.0.1",
    port: int = 8080,
    service: MeasurementService | None = None,
    workers: int | None = None,
    max_pending: int = 128,
    executor: str = "eager",
    verbose: bool = False,
    ledger: str | None = None,
    rate_limit: float | None = None,
    rate_burst: float | None = None,
    max_total_pending: int | None = None,
    deadline_ms: float | None = None,
    breaker_threshold: int | None = None,
    breaker_reset: float = 5.0,
    listen_socket=None,
) -> ServiceHTTPServer:
    """Build a :class:`ServiceHTTPServer` (not yet serving).

    Callers run ``server.serve_forever()`` (the CLI) or
    ``server.serve_in_background()`` (tests/benchmarks); ``port=0`` binds an
    ephemeral port, available afterwards via ``server.url``.  ``ledger``
    makes the service durable (see :class:`MeasurementService`);
    ``deadline_ms`` applies a default end-to-end deadline to measurements
    arriving without an ``X-Repro-Deadline-Ms`` header, and
    ``breaker_threshold``/``breaker_reset`` tune the durable-ledger circuit
    breaker.
    """
    if service is None:
        service = MeasurementService(
            workers=workers,
            max_pending=max_pending,
            default_executor=executor,
            ledger_path=ledger,
            rate_limit=rate_limit,
            rate_burst=rate_burst,
            max_total_pending=max_total_pending,
            deadline_ms=deadline_ms,
            breaker_threshold=breaker_threshold,
            breaker_reset=breaker_reset,
        )
    return ServiceHTTPServer(
        (host, port), service, verbose=verbose, listen_socket=listen_socket
    )


def _readable(sock: socket.socket) -> bool:
    """Whether ``sock`` has data, EOF or an error to report right now.

    ``poll``, not ``select``: ``select`` refuses descriptors past
    ``FD_SETSIZE``, which a busy process reaches.
    """
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


class ServiceClient:
    """Python client for the measurement service's HTTP/JSON API.

    Raises the library's own exceptions on errors: a 503 becomes
    :class:`ServiceOverloadedError` (retry with backoff), a 403 becomes
    :class:`BudgetExceededError` with the requested/remaining amounts, other
    service failures raise :class:`ServiceError`.  A failed connection raises
    an :class:`OSError` subclass.

    Each calling thread keeps one persistent connection, so a client shared
    by N threads still sends N requests at once.  A request is never re-sent:
    any error on a connection closes it and re-raises.  An idle connection
    the server has since closed is noticed before anything is written to it
    and replaced by a fresh one.
    """

    def __init__(self, base_url: str, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parts = urllib.parse.urlsplit(self.base_url)
        if parts.scheme != "http":
            raise ValueError(f"ServiceClient needs an http:// URL, got {base_url!r}")
        self._host, self._port, self._prefix = parts.hostname, parts.port, parts.path
        self._local = threading.local()

    def close(self) -> None:
        """Close the calling thread's connection; its next call reconnects."""
        connection = getattr(self._local, "connection", None)
        self._local.connection = None
        if connection is not None:
            connection.close()

    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout
            )
            self._local.connection = connection
        elif connection.sock is not None and _readable(connection.sock):
            # An idle connection has nothing to read unless the server has
            # closed it: reconnect before writing anything.
            connection.close()
        return connection

    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        payload: dict[str, Any] | None = None,
        headers: dict[str, str] | None = None,
    ) -> dict[str, Any]:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        connection = self._connection()
        try:
            connection.request(
                method,
                self._prefix + path,
                body=body,
                headers={"Content-Type": "application/json", **(headers or {})},
            )
            response = connection.getresponse()
            data = response.read()
        except BaseException as exc:
            self.close()
            if isinstance(exc, http.client.HTTPException) and not isinstance(
                exc, OSError
            ):
                raise ConnectionError(f"malformed HTTP response: {exc!r}") from exc
            raise
        if response.will_close:
            self.close()
        if response.status < 400:
            return json.loads(data.decode("utf-8"))
        try:
            error = json.loads(data.decode("utf-8"))
        except Exception:  # noqa: BLE001 - malformed error body
            error = {"error": f"HTTP {response.status}", "type": "ServiceError"}
        raise self._exception_for(response.status, error)

    @staticmethod
    def _exception_for(status: int, error: dict[str, Any]) -> ReproError:
        message = error.get("error", f"HTTP {status}")
        code = error.get("code", "")
        kind = error.get("type", "")
        # The machine-readable ``code`` is the stable contract; the legacy
        # ``type`` name and bare status are fallbacks for older servers.
        if code == "rate_limited" or status == 429 or kind == "RateLimitedError":
            return RateLimitedError(
                message, retry_after=error.get("retry_after", 0.0)
            )
        if code == "circuit_open" or kind == "CircuitOpenError":
            return CircuitOpenError(
                message, retry_after=error.get("retry_after", 0.0)
            )
        if code == "deadline_exceeded" or kind == "DeadlineExceededError":
            return DeadlineExceededError(message)
        if code == "session_exists" or kind == "SessionExistsError":
            return SessionExistsError(message)
        if (
            code == "overloaded"
            or status == 503
            or kind == "ServiceOverloadedError"
        ):
            return ServiceOverloadedError(message)
        if code == "budget_exceeded" or kind == "BudgetExceededError":
            return BudgetExceededError(
                error.get("requested", 0.0),
                error.get("remaining", 0.0),
                source=error.get("source"),
            )
        if code == "invalid_epsilon" or kind == "InvalidEpsilonError":
            return InvalidEpsilonError(message)
        if code == "invalid_plan" or kind == "PlanError":
            return PlanError(message)
        if code == "fault_injected" or kind == "FaultInjectedError":
            # Not a ServiceError: an ``http.write`` fault fires after the
            # work, so the call may have charged.
            return FaultInjectedError(error.get("point", "unknown"), message)
        return ServiceError(message)

    # ------------------------------------------------------------------
    def health(self) -> dict[str, Any]:
        """Liveness probe."""
        return self._request("GET", "/healthz")

    def create_session(
        self,
        name: str,
        records: list[Any],
        total_epsilon: float = float("inf"),
        seed: int | None = None,
        executor: str | None = None,
        source: str = "edges",
    ) -> dict[str, Any]:
        """Host a protected dataset on the server (records as JSON arrays)."""
        payload: dict[str, Any] = {
            "name": name,
            "records": [
                list(record) if isinstance(record, tuple) else record
                for record in records
            ],
            "total_epsilon": total_epsilon,
            "source": source,
        }
        if seed is not None:
            payload["seed"] = seed
        if executor is not None:
            payload["executor"] = executor
        return self._request("POST", "/v1/sessions", payload)

    def sessions(self) -> list[dict[str, Any]]:
        """Summaries of every hosted session."""
        return self._request("GET", "/v1/sessions")["sessions"]

    def session(self, name: str) -> dict[str, Any]:
        """One hosted session's summary."""
        return self._request("GET", f"/v1/sessions/{name}")

    def close_session(self, name: str) -> dict[str, Any]:
        """Drop a hosted session."""
        return self._request("DELETE", f"/v1/sessions/{name}")

    def budget(self, name: str) -> dict[str, dict[str, float]]:
        """The session's ledger report (total/spent/remaining per source)."""
        return self._request("GET", f"/v1/sessions/{name}/budget")["budget"]

    def audit(self, name: str | None = None) -> list[dict[str, Any]]:
        """Audit events — the full log, or one session's slice."""
        path = "/v1/audit" if name is None else f"/v1/sessions/{name}/audit"
        return self._request("GET", path)["events"]

    def measure(
        self,
        session: str,
        query: str,
        epsilon: float,
        deadline_ms: float | None = None,
    ) -> dict[str, Any]:
        """Take one measurement; returns the released values payload.

        ``deadline_ms`` sends an end-to-end deadline with the request (the
        ``X-Repro-Deadline-Ms`` header); an expired deadline is refused at
        admission with a 504 before any budget is charged.
        """
        headers = None
        if deadline_ms is not None:
            headers = {DEADLINE_HEADER: f"{deadline_ms:g}"}
        return self._request(
            "POST",
            f"/v1/sessions/{session}/measure",
            {"query": query, "epsilon": epsilon},
            headers=headers,
        )

    def stats(self) -> dict[str, Any]:
        """Scheduler and cache counters."""
        return self._request("GET", "/v1/stats")
