"""Shared configuration for the paper suite (``benchmarks/bench_*.py``).

One file per entry of ``repro.cli.EXPERIMENTS``: each regenerates one of the
paper's tables, figures or ablations on the scaled-down synthetic stand-ins,
prints the rows/series, and asserts the qualitative *shape* the paper reports.
Nothing here times the platform — that is ``benchmarks/e2e/`` — and no file
needs a plugin beyond pytest itself.  Scale and MCMC length can be raised via
the ``REPRO_BENCH_SCALE`` / ``REPRO_BENCH_STEPS`` environment variables.

Because pytest captures stdout of passing tests, the tables produced by each
benchmark are (a) accumulated and echoed in the terminal summary at the end of
the run, and (b) written to ``benchmarks/results/latest_report.txt``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

_RESULTS_DIR = Path(__file__).resolve().parent / "results"
_REPORT_BLOCKS: list[str] = []


@pytest.fixture(scope="session")
def config():
    """The experiment configuration selected by the environment."""
    from repro.experiments import default_config

    return default_config()


def emit(text: str) -> None:
    """Record a report block: printed now, echoed in the terminal summary."""
    print()
    print(text)
    print()
    _REPORT_BLOCKS.append(text)


def pytest_sessionstart(session):
    _REPORT_BLOCKS.clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORT_BLOCKS:
        return
    terminalreporter.write_sep("=", "paper tables and figures (reproduced)")
    for block in _REPORT_BLOCKS:
        terminalreporter.write_line("")
        for line in block.splitlines():
            terminalreporter.write_line(line)
    _RESULTS_DIR.mkdir(exist_ok=True)
    report_path = _RESULTS_DIR / "latest_report.txt"
    report_path.write_text("\n\n".join(_REPORT_BLOCKS) + "\n", encoding="utf-8")
    terminalreporter.write_line("")
    terminalreporter.write_line(f"report also written to {report_path}")
