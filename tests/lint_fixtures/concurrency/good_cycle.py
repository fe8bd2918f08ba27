"""Clean twin of ``bad_cycle.py``: both call paths respect the hierarchy.

Expected findings: none.
"""

import threading

lock_a = threading.Lock()  # lock-order: 10 goodcyc.a
lock_b = threading.Lock()  # lock-order: 20 goodcyc.b


def forward():
    with lock_a:
        with lock_b:
            pass


def also_forward():
    with lock_a:
        with lock_b:
            pass
