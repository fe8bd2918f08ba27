"""R009 fixture: blocking calls under a lock not declared ``io-ok``.

Expected findings: exactly five R009 — the direct ``time.sleep`` in
``slow_direct``, the transitive one reached through ``_pause`` in
``slow_indirect``, the HTTP reply awaited in ``reply_under_lock``, and the
request sent and the reply read in ``round_trip_under_lock`` (a socket
client's round trip, as ``ServiceClient`` makes it).
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


def round_trip_under_lock(connection, request: bytes):
    with state_lock:
        connection.sock.sendall(request)
        return connection.read_reply()
