"""Clean twin of ``bad_order.py``: every lock declared, order respected.

Expected findings: none.
"""

import threading

low = threading.Lock()  # lock-order: 10 goodord.low
high = threading.Lock()  # lock-order: 30 goodord.high


def ascending():
    with low:
        with high:
            pass
