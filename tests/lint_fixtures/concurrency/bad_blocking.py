"""R009 fixture: blocking calls under a lock not declared ``io-ok``.

Expected findings: exactly three R009 — the direct ``time.sleep`` in
``slow_direct``, the transitive one reached through ``_pause`` in
``slow_indirect``, and the HTTP reply awaited in ``reply_under_lock``.
"""

import http.client
import threading
import time

state_lock = threading.Lock()  # lock-order: 10 blk.state


def _pause():
    time.sleep(0.1)


def slow_direct():
    with state_lock:
        time.sleep(0.1)


def slow_indirect():
    with state_lock:
        _pause()


def reply_under_lock(connection: http.client.HTTPConnection):
    with state_lock:
        return connection.getresponse()
