"""Stdlib HTTP/JSON transport for the measurement service, plus a client.

No third-party dependencies, and no HTTP framework either: the server is a
:class:`socketserver.ThreadingTCPServer` whose one handler thread per
connection (which also runs the measurements it reads, one charge each)
runs a keep-alive loop of its own — read a request line, headers and a
``Content-Length`` body, route, write the status, headers and body in one
write.
:class:`ServiceClient` speaks the same JSON over one plain socket
per calling thread: one ``sendall`` per request, and a buffered read of the
status line, headers and ``Content-Length`` body.  Both ends parse only the
slice of HTTP/1.1 the service uses, within :mod:`http.server`'s limits
(64 KiB per line, 100 headers), and ``http.client``, ``urllib`` and
``curl`` talk to the server as they would to any HTTP/1.1 one.

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
    GET    /v1/stats                     request, cache, exact-answer and
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

import json
import re
import select
import socket
import socketserver
import sys
import threading
import time
import urllib.parse
from http import HTTPStatus
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
from .core import MeasurementAnswer, MeasurementService

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
    """Render a service answer as the measure endpoint's JSON body."""
    return {
        "session": answer.session,
        "query": answer.query,
        "epsilon": answer.epsilon,
        "cached": answer.cached,
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


# http.server's limits: bytes in one request or header line, and headers.
_MAX_LINE = 65536
_MAX_HEADERS = 100
_REASONS = {status.value: status.phrase for status in HTTPStatus}
# What http.client refuses to send: a byte outside printable ASCII in the
# request target, and a header name or value that could end its line.
_BAD_TARGET = re.compile(r"[^\x21-\x7e]")
_HEADER_NAME = re.compile(r"[^:\s][^:\r\n]*")
_LINE_BREAK = re.compile(r"[\r\n]")


class _HeaderError(ConnectionError):
    """A header block that cannot be read.

    ``status`` is what a server answers it with, or ``None`` when the stream
    ended inside the block and there is nobody left to answer.
    """

    def __init__(self, status: int | None, message: str) -> None:
        super().__init__(message)
        self.status = status


def _read_headers(reader: Any) -> dict[str, str]:
    """Read a header block through its blank line, keyed by lower-cased name.

    A repeated header keeps its first value.  Raises :class:`_HeaderError`
    for a line over ``_MAX_LINE``, a malformed line, more than
    ``_MAX_HEADERS`` headers or the end of the stream.
    """
    headers: dict[str, str] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = reader.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise _HeaderError(431, f"header line longer than {_MAX_LINE} bytes")
        if line in (b"\r\n", b"\n"):
            return headers
        if not line:
            raise _HeaderError(None, "the connection closed inside a header block")
        name, colon, value = line.decode("latin-1").partition(":")
        if not name or not colon or name != name.strip():
            raise _HeaderError(400, f"bad header line {line[:80]!r}")
        headers.setdefault(name.lower(), value.strip())
    raise _HeaderError(431, f"more than {_MAX_HEADERS} headers")


class _Connection(socketserver.StreamRequestHandler):
    """One client connection: read a request, route it, reply, repeat.

    Speaks the slice of HTTP/1.1 the service needs: a request line, headers
    keyed by lower-cased name and a ``Content-Length`` body in; a status
    line, ``Content-Type``, ``Content-Length`` (and ``Connection: close``
    when the connection ends) and a JSON body out, in one write.  HTTP/1.1
    connections stay open until the client sends ``Connection: close``;
    HTTP/1.0 ones close after the reply.  A request the loop cannot read
    (line too long, too many headers, unknown method) is answered with a
    JSON error and the connection closed.
    """

    # A reply is one write; Nagle's algorithm would still hold it back
    # while the previous reply's ACK is outstanding.
    disable_nagle_algorithm = True
    server: "ServiceHTTPServer"

    def setup(self) -> None:
        super().setup()
        self.server._track(self.connection)

    def handle(self) -> None:
        while self._serve_one():
            pass

    def _serve_one(self) -> bool:
        """Answer one request; whether the connection stays open."""
        line = self.rfile.readline(_MAX_LINE + 1)
        if not line or self.server._stopping:
            # EOF; or data that reached a connection after stop() shut its
            # read side, which is still readable: drop it rather than serve.
            return False
        self._body_read = False
        self.headers: dict[str, str] = {}
        self.request_line = line.rstrip(b"\r\n").decode("latin-1")
        if len(line) > _MAX_LINE:
            return self._refuse(414, "request line longer than 65536 bytes")
        words = self.request_line.split()
        if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
            return self._refuse(400, f"bad request line {self.request_line[:80]!r}")
        method, self.path, version = words
        try:
            self.headers = _read_headers(self.rfile)
        except _HeaderError as exc:
            if exc.status is None:  # the client went away mid-request
                return False
            return self._refuse(exc.status, str(exc))
        self.server._count_request()
        self.keep_alive = version == "HTTP/1.1" and "close" not in (
            self.headers.get("connection", "").lower()
        )
        route = _ROUTES.get(method)
        if route is None:
            return self._refuse(501, f"unsupported method {method!r}")
        expect = self.headers.get("expect", "").lower()
        if version == "HTTP/1.1" and expect == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        route(self)
        return self.keep_alive

    def _refuse(self, status: int, message: str) -> bool:
        """Answer a request the loop cannot serve, and end the connection."""
        self.keep_alive = False
        self._send({"error": message, "type": "ServiceError"}, status)
        return False

    def _reply(self, payload: dict[str, Any], status: int = 200) -> None:
        # Fault point: a "fail" here drops the connection before any bytes
        # of the response are written — the client sees a connection error
        # even though the service-side work (and any budget charge) is done.
        inject("http.write")
        if not self._body_read and (
            self.headers.get("content-length", "0") != "0"
            or "transfer-encoding" in self.headers
        ):
            # The request body is still in the socket, where it would be
            # parsed as the next request line: end the connection instead.
            self.keep_alive = False
        self._send(payload, status)

    def _send(self, payload: dict[str, Any], status: int) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            + ("" if self.keep_alive else "Connection: close\r\n")
            + "\r\n"
        )
        self.wfile.write(head.encode("latin-1") + body)
        if self.server.verbose:  # pragma: no cover - debugging aid
            when = time.strftime("%d/%b/%Y %H:%M:%S")
            sys.stderr.write(
                f'{self.client_address[0]} - - [{when}] "{self.request_line}" '
                f"{status} {len(body)}\n"
            )

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
        raw = self.headers.get("content-length") or "0"
        if not raw.isdecimal() or "transfer-encoding" in self.headers:
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
        raw = self.headers.get(DEADLINE_HEADER.lower())
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
    def do_GET(self) -> None:  # noqa: N802 - named after the HTTP method
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

    def do_POST(self) -> None:  # noqa: N802 - named after the HTTP method
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
                answer = service.measure(
                    route[2], query, epsilon, deadline=self._deadline()
                )
                self._reply(answer_to_json(answer))
            else:
                self._reply({"error": "not found", "type": "ServiceError"}, 404)
        except Exception as exc:  # noqa: BLE001 - every error becomes JSON
            self._error(exc)

    def do_DELETE(self) -> None:  # noqa: N802 - named after the HTTP method
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


_ROUTES = {
    "GET": _Connection.do_GET,
    "POST": _Connection.do_POST,
    "DELETE": _Connection.do_DELETE,
}


class ServiceHTTPServer(socketserver.ThreadingTCPServer):
    """A threading HTTP server bound to one :class:`MeasurementService`.

    One thread per connection, running :class:`_Connection`'s keep-alive
    loop.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: MeasurementService,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, _Connection)
        self.service = service
        self.verbose = verbose
        self._connections_lock = ordered_lock("service.http", 8)
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
        """Connections accepted and requests handled since the server started."""
        with self._connections_lock:
            return {
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
        """Shut the listener, the open connections and the service down."""
        self.shutdown()
        self.stop_serving()

    def stop_serving(self) -> None:
        """Everything :meth:`stop` does once the accept loop has ended.

        Every open connection's read side is shut: an idle one reads EOF and
        closes, a reply in flight is still written, and no further request
        is served.  Then the listener closes and the service drains.
        Returns when every connection is closed, or after a few seconds if
        a client is not reading its reply.  ``repro serve``, whose accept
        loop runs on the calling thread and unwinds on a signal (or never
        started, so ``shutdown()`` would wait forever), calls this directly.
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
) -> ServiceHTTPServer:
    """Build a :class:`ServiceHTTPServer` (not yet serving).

    Callers run ``server.serve_forever()`` (the CLI) or
    ``server.serve_in_background()`` (tests/benchmarks); ``port=0`` binds an
    ephemeral port, available afterwards via ``server.url``.  ``ledger``
    makes the service durable (see :class:`MeasurementService`);
    ``deadline_ms`` applies a default end-to-end deadline to measurements
    arriving without an ``X-Repro-Deadline-Ms`` header, and
    ``breaker_threshold``/``breaker_reset`` tune the durable-ledger circuit
    breaker.  A ledger another store holds is refused with
    :class:`~repro.exceptions.PersistenceError`.
    """
    if service is not None:
        return ServiceHTTPServer((host, port), service, verbose=verbose)
    service = MeasurementService(
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
    try:
        return ServiceHTTPServer((host, port), service, verbose=verbose)
    except BaseException:
        service.shutdown()  # releases the ledger file when the port is taken
        raise


def _readable(sock: socket.socket) -> bool:
    """Whether ``sock`` has data, EOF or an error to report right now.

    ``poll``, not ``select``: ``select`` refuses descriptors past
    ``FD_SETSIZE``, which a busy process reaches.
    """
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


class _ClientConnection:
    """One client socket and the buffered reader its replies are read from."""

    __slots__ = ("sock", "reader")

    def __init__(self, address: tuple[str, int], timeout: float) -> None:
        self.sock = socket.create_connection(address, timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def read_reply(self) -> tuple[int, bool, bytes]:
        """The status, whether the server closes after it, and the body."""
        line = self.reader.readline(_MAX_LINE + 1)
        if not line:
            raise ConnectionError("the server closed the connection without replying")
        words = line.split(None, 2)
        if len(words) < 2 or not words[0].startswith(b"HTTP/") or not (
            len(words[1]) == 3 and words[1].isdigit()
        ):
            raise ConnectionError(f"malformed HTTP status line {line[:80]!r}")
        headers = _read_headers(self.reader)
        will_close = words[0] == b"HTTP/1.0" or "close" in (
            headers.get("connection", "").lower()
        )
        length = headers.get("content-length", "")
        if not length.isdecimal():
            raise ConnectionError(f"reply without a valid Content-Length: {length!r}")
        data = self.reader.read(int(length))
        if len(data) < int(length):
            raise ConnectionError(
                f"reply cut short: {len(data)} of {int(length)} body bytes"
            )
        return int(words[1]), will_close, data


class ServiceClient:
    """Python client for the measurement service's HTTP/JSON API.

    Raises the library's own exceptions on errors: a 503 becomes
    :class:`ServiceOverloadedError` (retry with backoff), a 403 becomes
    :class:`BudgetExceededError` with the requested/remaining amounts, other
    service failures raise :class:`ServiceError`.  A failed connection raises
    an :class:`OSError` subclass; a reply cut short or malformed raises
    :class:`ConnectionError`.  A session name that cannot go into a request
    line as it is (a space, a control or a non-ASCII character) raises
    :class:`ValueError` before anything is sent, as ``http.client`` does.

    Each calling thread keeps one persistent connection — a socket and the
    buffered reader its replies are read from — so a client shared by N
    threads still sends N requests at once.  A request is never re-sent: any
    error on a connection closes it and re-raises.  An idle connection the
    server has since closed is noticed before anything is written to it and
    replaced by a fresh one.
    """

    def __init__(self, base_url: str, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parts = urllib.parse.urlsplit(self.base_url)
        if parts.scheme != "http":
            raise ValueError(f"ServiceClient needs an http:// URL, got {base_url!r}")
        self._address = (parts.hostname, parts.port or 80)
        self._host, self._prefix = parts.netloc, parts.path
        self._local = threading.local()

    def close(self) -> None:
        """Close the calling thread's connection; its next call reconnects."""
        connection = getattr(self._local, "connection", None)
        self._local.connection = None
        if connection is not None:
            connection.close()

    def _connection(self) -> _ClientConnection:
        connection = getattr(self._local, "connection", None)
        if connection is not None and _readable(connection.sock):
            # An idle connection has nothing to read unless the server has
            # closed it: reconnect before writing anything.
            self.close()
            connection = None
        if connection is None:
            connection = _ClientConnection(self._address, self.timeout)
            self._local.connection = connection
        return connection

    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        payload: dict[str, Any] | None = None,
        headers: dict[str, str] | None = None,
    ) -> dict[str, Any]:
        target = self._prefix + path
        if _BAD_TARGET.search(target):
            raise ValueError(f"not printable ASCII without spaces: {target!r}")
        head = f"{method} {target} HTTP/1.1\r\nHost: {self._host}\r\n"
        for name, value in (headers or {}).items():
            if not _HEADER_NAME.fullmatch(name) or _LINE_BREAK.search(value):
                raise ValueError(f"invalid header {name!r}: {value!r}")
            head += f"{name}: {value}\r\n"
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            head += (
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            )
        try:
            connection = self._connection()
            connection.sock.sendall(head.encode("latin-1") + b"\r\n" + body)
            status, will_close, data = connection.read_reply()
        except BaseException:
            self.close()
            raise
        if will_close:
            self.close()
        if status < 400:
            return json.loads(data.decode("utf-8"))
        try:
            error = json.loads(data.decode("utf-8"))
        except Exception:  # noqa: BLE001 - malformed error body
            error = {"error": f"HTTP {status}", "type": "ServiceError"}
        raise self._exception_for(status, error)

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
