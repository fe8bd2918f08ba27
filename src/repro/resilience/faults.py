"""Deterministic, seed-driven fault injection.

The production code is threaded with *injection points* — named call sites
(``inject("wal.pre_commit")``) at the places where real deployments fail:
around fsyncs, inside the ledger's charge transaction, in the shard pool's
dispatch/heartbeat/worker paths, around shared-memory attach and unlink, and
on HTTP socket reads/writes.  With no plan installed an injection
point is a single module-global load plus a ``None`` check — free on hot
paths.

A :class:`FaultPlan` maps points to :class:`FaultRule` schedules.  Every
decision is a pure function of ``(seed, point, hit_index)`` via ``blake2b``,
so a schedule replays identically regardless of thread interleaving or
``PYTHONHASHSEED`` — the property the chaos harness relies on to reproduce a
failing run from its seed alone.

Plans activate three ways:

* ``with active_plan(plan): ...`` — scoped, for tests;
* :func:`install_from_env` — reads ``REPRO_FAULTS`` at import time, so
  subprocesses (forked serve workers, spawned pool workers) inherit the
  schedule through their environment;
* :func:`activate` / :func:`deactivate` — explicit, for the chaos driver.

``REPRO_FAULTS`` grammar (entries joined by ``;``)::

    seed=42;wal.intent_commit:kill@after=2;http.write:fail@p=0.2,limit=3
    pool.dispatch:delay:0.05@every=4

Each entry is ``point:action[:value][@opt,opt...]`` with actions ``fail``
(raise :class:`FaultInjectedError`), ``delay`` (sleep ``value`` seconds) and
``kill`` (``SIGKILL`` the current process — the crash-recovery hammer).
Options: ``after=N`` (fire only from the N-th hit on, 1-based), ``every=N``
(fire on every N-th hit), ``p=F`` (fire with probability ``F`` per hit,
decided deterministically from the seed), ``limit=N`` (fire at most N times).
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

from ..exceptions import FaultInjectedError
from ..sanitize import ordered_lock

__all__ = [
    "INJECTION_POINTS",
    "FaultRule",
    "FaultPlan",
    "inject",
    "active_plan",
    "activate",
    "deactivate",
    "current_plan",
    "parse_plan",
    "install_from_env",
]

ENV_VAR = "REPRO_FAULTS"

#: Canonical registry of injection points threaded through the stack.  Plans
#: may only name points listed here — a typo'd point is a configuration error,
#: not a silently dead schedule.
INJECTION_POINTS = {
    "wal.intent_commit": "inside the charge transaction, before the affordability check",
    "wal.pre_commit": "before the commit transaction's fsync",
    "wal.post_commit": "after the commit transaction's fsync",
    "pool.dispatch": "before a task frame is written to a pool worker",
    "pool.heartbeat": "before a heartbeat ping is sent to a worker",
    "pool.worker": "inside the worker loop, before executing a task",
    "shm.attach": "before a worker attaches a shared-memory segment",
    "shm.unlink": "before the owner unlinks a shared-memory segment",
    "http.read": "while reading an HTTP request body",
    "http.write": "while writing an HTTP response",
}

_ACTIONS = ("fail", "delay", "kill")


def _decision(seed, point, hit):
    """Deterministic uniform in [0, 1) for the ``hit``-th arrival at ``point``.

    Hash-based rather than drawn from a shared RNG so concurrent threads
    hitting different points cannot perturb each other's schedules.
    """
    digest = hashlib.blake2b(
        f"{seed}:{point}:{hit}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / float(1 << 64)


@dataclass
class FaultRule:
    """Schedule for one injection point."""

    point: str
    action: str
    value: float = 0.0
    after: int = 1
    every: int = 1
    probability: float = 1.0
    limit: int | None = None

    def __post_init__(self):
        if self.point not in INJECTION_POINTS:
            raise ValueError(f"unknown injection point {self.point!r}")
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.action == "delay" and self.value <= 0.0:
            raise ValueError("delay faults need a positive duration")

    def should_fire(self, seed, hit):
        """Whether the ``hit``-th arrival (1-based) fires this rule."""
        if hit < self.after:
            return False
        if (hit - self.after) % self.every != 0:
            return False
        if self.probability < 1.0:
            return _decision(seed, self.point, hit) < self.probability
        return True

    def spec(self):
        parts = [self.point, self.action]
        if self.action == "delay":
            parts.append(f"{self.value:g}")
        opts = []
        if self.after != 1:
            opts.append(f"after={self.after}")
        if self.every != 1:
            opts.append(f"every={self.every}")
        if self.probability < 1.0:
            opts.append(f"p={self.probability:g}")
        if self.limit is not None:
            opts.append(f"limit={self.limit}")
        text = ":".join(parts)
        return text + ("@" + ",".join(opts) if opts else "")


class FaultPlan:
    """A seed plus a set of per-point rules, with hit/fire accounting."""

    def __init__(self, seed=0, rules=()):
        self.seed = int(seed)
        self._rules = {}
        for rule in rules:
            self.add(rule)
        self._lock = ordered_lock("resilience.faults", 90)
        self._hits = {}
        self._fired = {}

    def add(self, rule):
        self._rules[rule.point] = rule
        return self

    @property
    def rules(self):
        return dict(self._rules)

    def on_hit(self, point):
        """Record an arrival at ``point``; return the action to take or None.

        Returns ``None`` (no-op), or a ``(action, value)`` pair.  Counting and
        firing decisions happen under the plan lock so concurrent threads see
        a consistent hit sequence.
        """
        rule = self._rules.get(point)
        with self._lock:
            hit = self._hits.get(point, 0) + 1
            self._hits[point] = hit
            if rule is None:
                return None
            fired = self._fired.get(point, 0)
            if rule.limit is not None and fired >= rule.limit:
                return None
            if not rule.should_fire(self.seed, hit):
                return None
            self._fired[point] = fired + 1
        return (rule.action, rule.value)

    def stats(self):
        with self._lock:
            return {
                "seed": self.seed,
                "hits": dict(self._hits),
                "fired": dict(self._fired),
            }

    def to_env(self):
        """Serialise to the ``REPRO_FAULTS`` grammar (for subprocesses)."""
        entries = [f"seed={self.seed}"]
        entries.extend(rule.spec() for rule in self._rules.values())
        return ";".join(entries)


def parse_plan(text):
    """Parse the ``REPRO_FAULTS`` grammar into a :class:`FaultPlan`."""
    seed = 0
    rules = []
    for raw in text.split(";"):
        entry = raw.strip()
        if not entry:
            continue
        if entry.startswith("seed="):
            seed = int(entry[5:])
            continue
        spec, _, opt_text = entry.partition("@")
        parts = spec.split(":")
        if len(parts) < 2:
            raise ValueError(f"malformed fault entry {entry!r}")
        point, action = parts[0], parts[1]
        value = float(parts[2]) if len(parts) > 2 else 0.0
        opts = {}
        if opt_text:
            for opt in opt_text.split(","):
                key, _, val = opt.partition("=")
                opts[key.strip()] = val.strip()
        rules.append(
            FaultRule(
                point=point,
                action=action,
                value=value,
                after=int(opts.get("after", 1)),
                every=int(opts.get("every", 1)),
                probability=float(opts.get("p", 1.0)),
                limit=int(opts["limit"]) if "limit" in opts else None,
            )
        )
    return FaultPlan(seed=seed, rules=rules)


# The single module-global consulted by inject().  ``None`` means injection
# is disabled and inject() is one attribute load + comparison.
_active: FaultPlan | None = None


def inject(point):
    """Injection point.  No-op unless a plan is active and targets ``point``."""
    plan = _active
    if plan is None:
        return
    outcome = plan.on_hit(point)
    if outcome is None:
        return
    action, value = outcome
    if action == "fail":
        raise FaultInjectedError(point)
    if action == "delay":
        time.sleep(value)
        return
    if action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)


def current_plan():
    return _active


def activate(plan):
    global _active
    _active = plan
    return plan


def deactivate():
    global _active
    _active = None


@contextmanager
def active_plan(plan):
    """Scoped activation for tests.  Not re-entrant across different plans."""
    global _active
    previous = _active
    _active = plan
    try:
        yield plan
    finally:
        _active = previous


def install_from_env(environ=None):
    """Activate the plan named by ``REPRO_FAULTS``, if any.

    Called at package import so spawned/forked subprocesses self-install the
    schedule their parent exported.  Returns the installed plan or ``None``.
    """
    env = os.environ if environ is None else environ
    text = env.get(ENV_VAR)
    if not text:
        return None
    return activate(parse_plan(text))
