"""A per-test time bound for the mutation runner's pytest columns.

Loaded by ``run.py`` with ``-p pertest_timeout`` for the ``sanitizer`` and
``tier1`` columns only.  Around each test it arms
:func:`faulthandler.dump_traceback_later` with ``exit=True``: a test that
outlives :data:`SECONDS` — a mutation that deadlocks the code under test —
dumps every thread's stack and ends pytest with exit status 1, so the column
records a catch within a minute or two instead of spending the runner's
whole-suite timeout.  It needs nothing beyond the standard library.
"""

from __future__ import annotations

import faulthandler
import os

import pytest

#: The slowest tier-1 test takes a few seconds on two cores; a test still
#: running after this long is stuck.
SECONDS = 60.0
#: The process's stderr, duplicated when ``-p`` imports this module, before
#: pytest redirects file descriptor 2 into its capture.
_STDERR = os.dup(2)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(SECONDS, exit=True, file=_STDERR)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
