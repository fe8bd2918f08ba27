"""Clean twin of ``bad_blocking.py``.

The sleep, the HTTP reply and the socket round trip either happen outside
the lock or under a lock declared ``io-ok`` (blocking by design, like the
WAL mutex).  Expected findings: none.
"""

import http.client
import threading
import time

io_lock = threading.Lock()  # lock-order: 10 goodblk.io io-ok


def sleep_outside():
    time.sleep(0.1)
    with io_lock:
        pass


def sleep_under_io_ok():
    with io_lock:
        time.sleep(0.1)


def reply_outside_lock(connection: http.client.HTTPConnection):
    response = connection.getresponse()
    with io_lock:
        pass
    return response


def round_trip_outside_lock(connection, request: bytes):
    connection.sock.sendall(request)
    reply = connection.read_reply()
    with io_lock:
        pass
    return reply
