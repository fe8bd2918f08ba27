"""R008 fixture: a hierarchy inversion, an undeclared lock, unsorted peers.

Expected findings: exactly three R008 — acquiring ``ord.low`` (level 10)
while holding ``ord.high`` (level 30), ``mystery_lock`` having no
``# lock-order:`` annotation, and ``ord.budget`` peers entered in a loop
that does not iterate ``sorted(...)``.  The inverted edge has no partner,
so the order graph stays acyclic.
"""

import threading
from contextlib import ExitStack

from repro.sanitize import ordered_lock

low = threading.Lock()  # lock-order: 10 ord.low
high = threading.Lock()  # lock-order: 30 ord.high
mystery_lock = threading.Lock()


def inverted():
    with high:
        with low:
            pass


class Budget:
    """Sibling budgets share one level: the factory declares them ``peers``."""

    def __init__(self) -> None:
        self.lock = ordered_lock("ord.budget", 20, peers=True)


def charge_unsorted(budgets: dict[str, Budget]):
    with ExitStack() as stack:
        for name in budgets:
            stack.enter_context(budgets[name].lock)
