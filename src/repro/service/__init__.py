"""wPINQ as a service: concurrent, multi-tenant measurement serving.

The paper frames the platform as an interactive service — analysts submit
measurement requests against protected datasets and the system answers while
the ledger enforces sequential composition.  This package is that serving
layer, built on the thread-safe budget accounting of :mod:`repro.core.budget`:

:mod:`repro.service.registry`
    Named :class:`~repro.core.queryable.PrivacySession` hosting (one per
    tenant/dataset) with per-session locks, curated named queries, and an
    append-only audit log.
:mod:`repro.service.scheduler`
    Request scheduling: each measurement runs on its caller's thread as one
    charge under its session's lock, with a bound on the requests waiting
    per session for backpressure.
:mod:`repro.service.cache`
    Answer reuse keyed by (plan identity, ε): a repeated identical
    measurement replays the previously released noisy answer at zero
    additional budget, which also makes the service idempotent under retries.
:mod:`repro.service.core`
    The :class:`MeasurementService` facade tying the three together.
:mod:`repro.service.http`
    The HTTP/JSON transport (``repro serve``): a keep-alive loop of its own
    over :mod:`socketserver` threads, no HTTP framework, and the matching
    :class:`ServiceClient`, one plain socket per calling thread.

With a durable ledger (``repro serve --ledger FILE``) the service is
restart-safe: budgets, sessions, audit events, and released answers are
committed to sqlite before they are acknowledged and recovered exactly on
the next boot — see README "Durability & operations".  One process serves
one ledger file (its store locks it); it scales by threads, one per
connection.
"""

from .cache import AnswerCache
from .core import MeasurementService
from .http import ServiceClient, ServiceHTTPServer, serve
from .registry import AuditEvent, HostedSession, SessionRegistry, default_query_builders
from .scheduler import BatchingScheduler, MeasurementAnswer

__all__ = [
    "AnswerCache",
    "AuditEvent",
    "BatchingScheduler",
    "HostedSession",
    "MeasurementAnswer",
    "MeasurementService",
    "ServiceClient",
    "ServiceHTTPServer",
    "SessionRegistry",
    "default_query_builders",
    "serve",
]
