"""Exception hierarchy for the wPINQ reproduction.

All library-specific errors derive from :class:`ReproError` so callers can
catch the whole family with a single ``except`` clause while still being able
to distinguish privacy-accounting failures from plain usage errors.

Every service-visible error carries a stable machine-readable ``code`` plus a
``retryable`` flag.  The HTTP layer maps codes to statuses centrally (see
``service/http.py``) and clients — including :class:`repro.resilience.policy.
RetryPolicy` — branch on ``code``, never on message strings.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""

    #: Stable machine-readable identifier for this error family.  Subclasses
    #: override it; the HTTP layer serialises it and maps it to a status.
    code = "repro_error"

    #: Whether a client may retry the same request verbatim and reasonably
    #: expect a different outcome.  Used by :class:`RetryPolicy` to decide
    #: which failures consume retry budget.
    retryable = False


class BudgetExceededError(ReproError):
    """Raised when a measurement would exceed a dataset's privacy budget.

    The measurement is *not* performed and no privacy budget is consumed when
    this error is raised, mirroring PINQ/wPINQ semantics where the budget
    check happens before any noisy value is computed.
    """

    code = "budget_exceeded"
    retryable = False

    def __init__(self, requested, remaining, source=None):
        self.requested = float(requested)
        self.remaining = float(remaining)
        self.source = source
        name = f" for source {source!r}" if source is not None else ""
        super().__init__(
            f"privacy budget exceeded{name}: requested epsilon "
            f"{self.requested:.6g}, remaining {self.remaining:.6g}"
        )


class InvalidEpsilonError(ReproError):
    """Raised when a non-positive or non-finite epsilon is supplied."""

    code = "invalid_epsilon"


class PlanError(ReproError):
    """Raised when a query plan is malformed.

    Examples: joining queryables that belong to different privacy sessions,
    or evaluating a plan against an environment that is missing one of its
    protected sources.
    """

    code = "invalid_plan"


class DataflowError(ReproError):
    """Raised on inconsistent use of the incremental dataflow engine."""

    code = "dataflow_error"


class GraphError(ReproError):
    """Raised on invalid graph operations (self-loops, missing vertices...)."""

    code = "graph_error"


class ServiceError(ReproError):
    """Raised on invalid use of the measurement service (:mod:`repro.service`).

    Examples: measuring against an unknown session, requesting a query the
    session does not host, or re-creating a session under a taken name.
    """

    code = "service_error"


class SessionExistsError(ServiceError):
    """Raised when creating a session under a name that is already taken.

    Either the name is live in this registry or a durable session row exists
    under it (possibly written before a restart).  The HTTP layer maps this
    to status 409; the request is not retryable verbatim — pick another name
    or attach to the existing session.
    """

    code = "session_exists"
    retryable = False


class ServiceOverloadedError(ServiceError):
    """Raised when the service refuses a request for backpressure.

    A session's pending-measurement queue is bounded; once it is full new
    submissions are rejected immediately rather than queued without limit, so
    a slow tenant cannot exhaust server memory.  Load shedding (the global
    pending bound across all sessions) raises the same error.  Clients should
    retry with backoff (the HTTP layer maps this to status 503).
    """

    code = "overloaded"
    retryable = True


class RateLimitedError(ServiceOverloadedError):
    """Raised when a tenant exceeds its per-session request rate.

    Distinct from generic overload: the refusal is attributable to the one
    tenant, not to server-wide pressure, and carries a ``retry_after`` hint
    (seconds until the tenant's token bucket holds a token again).  The HTTP
    layer maps this to status 429.
    """

    code = "rate_limited"
    retryable = True

    def __init__(self, message, retry_after=0.0):
        super().__init__(message)
        self.retry_after = float(retry_after)


class CircuitOpenError(ServiceOverloadedError):
    """Raised when a circuit breaker refuses a request without attempting it.

    The protected dependency (durable ledger, shard pool) has failed enough
    times recently that further attempts are presumed futile; the breaker
    fails fast instead of queueing work behind a broken backend.  Carries a
    ``retry_after`` hint equal to the breaker's remaining open window.  The
    HTTP layer maps this to status 503.
    """

    code = "circuit_open"
    retryable = True

    def __init__(self, message, retry_after=0.0):
        super().__init__(message)
        self.retry_after = float(retry_after)


class DeadlineExceededError(ServiceError):
    """Raised when a request's end-to-end deadline expired before completion.

    Deadlines are enforced *before* any privacy budget is charged: an expired
    deadline at service admission or just before the atomic charge consumes
    no epsilon.  Once a charge has committed, the answer is always released
    and cached, so retrying an expired request is budget-free — the retry is
    served from the answer cache without a second charge.  The HTTP layer
    maps this to status 504.
    """

    code = "deadline_exceeded"
    retryable = True


class FaultInjectedError(ReproError):
    """Raised by a deterministic fault-injection point (:mod:`repro.resilience`).

    Only ever raised while a :class:`FaultPlan` is active; production code
    with injection disabled can never see it.  Carries the injection ``point``
    name so chaos invariant checks can attribute the failure.
    """

    code = "fault_injected"
    retryable = True

    def __init__(self, point, message=None):
        self.point = str(point)
        super().__init__(message or f"injected fault at {self.point!r}")


class PersistenceError(ServiceError):
    """Raised on invalid use of the durable ledger store
    (:mod:`repro.persistence`), e.g. serving multiple processes without a
    ledger file, or re-opening a corrupted store."""

    code = "persistence_unavailable"
    retryable = True


class ChaosInvariantError(ReproError):
    """Raised by the chaos harness when a global invariant is violated.

    Each violation names the invariant (ledger accounting, shm cleanliness,
    liveness, replay bit-identity) and the schedule seed that provoked it so
    the run can be replayed deterministically.
    """

    code = "chaos_invariant"
