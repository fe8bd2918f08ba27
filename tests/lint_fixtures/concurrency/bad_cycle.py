"""Deadlock fixture: two functions acquire the same locks in opposite orders.

Expected findings: exactly one R008 hierarchy violation (the inverted edge
in ``backward``); ``repro locks`` reports the cycle cyc.a -> cyc.b -> cyc.a.
"""

import threading

lock_a = threading.Lock()  # lock-order: 10 cyc.a
lock_b = threading.Lock()  # lock-order: 20 cyc.b


def forward():
    with lock_a:
        with lock_b:
            pass


def backward():
    with lock_b:
        with lock_a:
            pass
