"""Multi-process serving: ``repro serve --workers N``.

One listening socket, ``N`` forked worker processes, one shared durable
ledger file.  The parent binds the socket and forks; each worker builds its
own :class:`~repro.service.core.MeasurementService` (its own sqlite
connection — connections must never cross a fork) and accepts connections
off the shared socket, so the kernel load-balances tenants across workers.

What makes this sound without any cross-worker RPC is that every piece of
*privacy-relevant* state lives in the durable store, not in worker memory:

* budget charges run through the store's serialized write transactions, so
  two workers charging one tenant concurrently can never jointly overspend —
  the affordability check and the debit are atomic file-wide;
* sessions created on one worker are persisted and re-materialised lazily by
  any sibling that is asked about them, with recovered spend — each seeded
  re-materialisation drawing from its own incarnation-derived noise stream
  (never the creator's stream re-wound to the start), so siblings can never
  re-release noise draws another worker already published;
* a worker's in-memory replica is re-validated against the persisted
  definition's generation stamp on every lookup, so a close or
  close-and-re-create on one worker evicts the stale replica (and its
  cached answers) everywhere instead of being served from old memory;
* released answers are persisted, so a retry landing on a different worker
  replays the identical answer at zero budget.

Worker memory only holds replicas (datasets, plan objects, the answer
cache), which is why a worker can be killed -9 at any moment without losing
a committed ε.  The one best-effort edge: two workers measuring the *same*
(query, ε) truly concurrently each charge soundly but may release different
noise draws; the store's first-release-wins rule makes all later replays
converge on one answer.

Graceful shutdown: SIGTERM/SIGINT to the parent is forwarded to every
worker; each worker stops accepting, ends its open keep-alive connections
(an idle one closes, a reply in flight is still written, no further request
is served), drains its scheduler and closes its sqlite connection before
exiting.  The forks are made
with both signals blocked and each process unblocks them once its handler is
in place, so a fleet stopped while its workers are still starting exits 0 too.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
from typing import Any

from ..exceptions import PersistenceError

__all__ = ["run_workers"]

_STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT)


class _ShutdownRequested(BaseException):
    """Raised by the worker's signal handler to unwind ``serve_forever``.

    Not an :class:`Exception`, for the reason ``KeyboardInterrupt`` is not:
    the signal may land while the accept loop is handing a connection to its
    thread, and ``socketserver`` reports and swallows every ``Exception``
    raised there — the worker would go on serving and the fleet never stop.
    """


def _worker_main(listen_socket: socket.socket, service_kwargs: dict[str, Any],
                 verbose: bool) -> None:
    """Body of one forked worker; never returns (``os._exit``)."""

    def _handle(signum: int, frame: Any) -> None:
        raise _ShutdownRequested()

    exit_code = 0
    service = server = None
    try:
        try:
            # First thing after the fork, which ``run_workers`` makes with
            # the stop signals blocked: a fleet told to stop while this
            # worker is still importing or opening the ledger unwinds like a
            # serving one (exit 0) instead of dying of the signal's default
            # action.
            signal.signal(signal.SIGTERM, _handle)
            signal.signal(signal.SIGINT, _handle)
            signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)
            from .core import MeasurementService
            from .http import ServiceHTTPServer

            service = MeasurementService(**service_kwargs)
            server = ServiceHTTPServer(
                listen_socket.getsockname(),
                service,
                verbose=verbose,
                listen_socket=listen_socket,
            )
            server.serve_forever()
        except (_ShutdownRequested, KeyboardInterrupt):
            pass
        finally:
            # Orderly: the accept loop ran on this thread and has unwound (or
            # never started, so there is nothing for ``server.stop()`` to wait
            # for).  End the open keep-alive connections, so no request is
            # served from here on, then finish the admitted requests and close
            # the sqlite connection.
            if server is not None:
                server.stop_serving()
            elif service is not None:
                service.shutdown()
    except BaseException:  # pragma: no cover - crash path
        import traceback

        traceback.print_exc()
        exit_code = 1
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(exit_code)


def run_workers(
    host: str,
    port: int,
    workers: int,
    service_kwargs: dict[str, Any],
    verbose: bool = False,
    backlog: int = 128,
) -> int:
    """Fork ``workers`` HTTP workers over one socket; block until they exit.

    Requires a durable ledger (``service_kwargs['ledger_path']``): without a
    shared store, each worker would keep its own budget ledger in memory and
    concurrent workers could jointly overspend a tenant's ε — the exact
    soundness hole this package exists to close.  Returns a process exit
    code (0 on clean shutdown of every worker).
    """
    if workers < 2:
        raise ValueError("run_workers needs at least 2 workers; use serve() for 1")
    if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX platforms
        raise PersistenceError("multi-process serving requires os.fork (POSIX)")
    if not service_kwargs.get("ledger_path"):
        raise PersistenceError(
            "--workers > 1 requires --ledger: multiple processes must share "
            "one durable budget ledger, or concurrent workers could jointly "
            "overspend a tenant's privacy budget"
        )

    listen_socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listen_socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listen_socket.bind((host, port))
    listen_socket.listen(backlog)
    bound_host, bound_port = listen_socket.getsockname()[:2]

    # The stop signals stay blocked (pending, not lost) from before the first
    # fork until each process has its handler: no worker is ever killed by a
    # SIGTERM it had no chance to catch, and none is missed by ``_forward``.
    signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
    pids: list[int] = []
    for _ in range(workers):
        pid = os.fork()
        if pid == 0:
            _worker_main(listen_socket, service_kwargs, verbose)  # never returns
        pids.append(pid)
    listen_socket.close()

    shutting_down = False

    def _forward(signum: int, frame: Any) -> None:
        nonlocal shutting_down
        shutting_down = True
        for pid in pids:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass

    signal.signal(signal.SIGTERM, _forward)
    signal.signal(signal.SIGINT, _forward)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)
    print(
        f"repro serve — {workers} workers on http://{bound_host}:{bound_port} "
        f"(pids {pids}, ledger {service_kwargs['ledger_path']})",
        flush=True,
    )

    exit_code = 0
    remaining = set(pids)
    while remaining:
        try:
            pid, status = os.wait()
        except InterruptedError:
            continue
        except ChildProcessError:  # pragma: no cover - defensive
            break
        if pid not in remaining:
            continue
        remaining.discard(pid)
        worker_code = os.waitstatus_to_exitcode(status)
        if worker_code != 0:
            exit_code = 1
        if not shutting_down and remaining:
            # A worker died unexpectedly: bring the fleet down rather than
            # serve degraded — budgets stay sound either way (they are in
            # the store), this is purely an availability decision.
            shutting_down = True
            exit_code = exit_code or 1
            for other in remaining:
                try:
                    os.kill(other, signal.SIGTERM)
                except ProcessLookupError:
                    pass
    return exit_code
