"""Cross-cutting robustness layer: fault injection, deadlines, retry, chaos.

Importing this package installs any fault plan named by the ``REPRO_FAULTS``
environment variable, so subprocesses (forked serve workers, spawned pool
workers) self-arm the schedule their parent exported.
"""

from __future__ import annotations

from .chaos import ChaosReport, run_chaos
from .deadline import Deadline, check_deadline, current_deadline, deadline_scope
from .faults import (
    INJECTION_POINTS,
    FaultPlan,
    FaultRule,
    activate,
    active_plan,
    current_plan,
    deactivate,
    inject,
    install_from_env,
    parse_plan,
)
from .policy import CircuitBreaker, RetryPolicy, seeded_jitter

__all__ = [
    "ChaosReport",
    "run_chaos",
    "INJECTION_POINTS",
    "FaultPlan",
    "FaultRule",
    "inject",
    "active_plan",
    "activate",
    "deactivate",
    "current_plan",
    "parse_plan",
    "install_from_env",
    "Deadline",
    "current_deadline",
    "deadline_scope",
    "check_deadline",
    "CircuitBreaker",
    "RetryPolicy",
    "seeded_jitter",
]

install_from_env()
