"""R008 fixture: a hierarchy inversion and an undeclared lock.

Expected findings: exactly two R008 — acquiring ``ord.low`` (level 10)
while holding ``ord.high`` (level 30), and ``mystery_lock`` having no
``# lock-order:`` annotation.  The inverted edge has no partner, so the
order graph stays acyclic.
"""

import threading

low = threading.Lock()  # lock-order: 10 ord.low
high = threading.Lock()  # lock-order: 30 ord.high
mystery_lock = threading.Lock()


def inverted():
    with high:
        with low:
            pass
