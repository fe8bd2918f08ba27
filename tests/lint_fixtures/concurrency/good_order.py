"""Clean twin of ``bad_order.py``: every lock declared, order respected.

Expected findings: none.
"""

import threading
from contextlib import ExitStack

from repro.sanitize import ordered_lock

low = threading.Lock()  # lock-order: 10 goodord.low
high = threading.Lock()  # lock-order: 30 goodord.high


def ascending():
    with low:
        with high:
            pass


class Budget:
    """Sibling budgets share one level: the factory declares them ``peers``."""

    def __init__(self) -> None:
        self.lock = ordered_lock("goodord.budget", 20, peers=True)


def charge_sorted(budgets: dict[str, Budget]):
    with ExitStack() as stack:
        for name in sorted(budgets):
            stack.enter_context(budgets[name].lock)
