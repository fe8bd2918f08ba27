"""Apply each seeded mutation to a scratch copy of the tree and run the checkers.

Usage (from the repository root)::

    python tests/mutations/run.py                         # every checker and mutation
    python tests/mutations/run.py --checkers lint,locks   # the static columns only
    python tests/mutations/run.py --only ledger-charge-unsorted --checkers lint
    python tests/mutations/run.py --checkers lint --jobs 2 --check   # CI
    python tests/mutations/run.py --records out.jsonl --write-matrix
    python tests/mutations/run.py --markdown              # README's table

Every record of :data:`corpus.MUTATIONS` is checked first: its ``old`` text
must occur exactly once in its file, or the run stops before any checker
starts.  The working tree's files (tracked plus untracked-but-not-ignored)
are copied once under ``$TMPDIR``; each mutation then gets its own copy of
that snapshot with the substitution applied, and each selected checker runs
there.  The unmutated tree always runs first, as the control: a checker
that already fails on it would be credited with every catch, so the run
exits 1 instead.  The checkers:

``lint``
    ``python -m repro lint``, split into one column per rule code that
    fires (``lint:R008`` ...) plus ``lint:plans`` for a failed named plan.
``locks``
    ``python -m repro locks`` exits non-zero (a lock-order cycle).
``sanitizer``
    The sanitizer suites of CI's ``sanitizer`` job under ``REPRO_SANITIZE=1``.
``tier1``
    ``pytest -x`` over ``tests/``, without the suites that run ``repro lint``
    over the tree itself (those only restate the ``lint`` column).
``chaos``
    ``python -m repro chaos --seed 1234 --steps 25``.

A checker that fails, crashes or outlives its timeout has caught the
mutation (a dynamic one only if it fails twice in a row).  One JSON record
per (mutation, checker) goes to ``--records`` in the per-claim shape
``name, value, threshold, pass, seconds`` — the claim is "this checker
catches this mutation", so ``pass`` is the catch.  Records of a lint run
name every column that fired; a lint column with no record did not.

``matrix.json`` next to this file maps each mutation to the columns that
caught it.  ``--write-matrix`` merges this run's columns into it;
``--check`` exits 1 if a column the matrix credits with a catch (among the
checkers this run selected) no longer catches that mutation.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MATRIX = HERE / "matrix.json"
sys.path.insert(0, str(HERE))

from corpus import CATEGORIES, MUTATIONS, Mutation  # noqa: E402

SANITIZER_SUITES = (
    "tests/test_sanitize.py tests/test_budget_concurrency.py "
    "tests/test_budget.py tests/test_queryable.py "
    "tests/test_service.py tests/test_service_http.py "
    "tests/test_service_persistence.py tests/test_persistence_wal.py "
    "tests/test_persistence_recovery.py tests/test_shard_pool.py "
    "tests/test_session_hold.py tests/test_columnar_release.py "
    "tests/test_resilience_deadline.py tests/test_resilience_cache.py "
    "tests/test_service_state_lock.py"
).split()
#: Suites that lint the tree itself: their verdict is the ``lint`` column's.
LINT_SUITES = (
    "tests/test_lint_cli.py",
    "tests/test_lint_concurrency.py",
    "tests/test_lint_flow.py",
    "tests/test_lint_rules.py",
)
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
COMMANDS = {
    "lint": ([sys.executable, "-m", "repro", "lint"], {}, 300),
    "locks": ([sys.executable, "-m", "repro", "locks"], {}, 300),
    "sanitizer": ([*PYTEST, *SANITIZER_SUITES], {"REPRO_SANITIZE": "1"}, 900),
    "tier1": (
        [
            *PYTEST,
            "tests",
            *[f"--ignore={suite}" for suite in LINT_SUITES],
            "--deselect=tests/test_lint_plans.py::test_repro_package_is_lint_clean",
            # A mutated tree is stale against the corpus by construction.
            "--deselect=tests/test_mutation_corpus.py::test_corpus_applies_to_the_tree",
        ],
        {},
        1200,
    ),
    "chaos": (
        [sys.executable, "-m", "repro", "chaos", "--seed", "1234", "--steps", "25"],
        {},
        600,
    ),
}
CHECKERS = tuple(COMMANDS)
#: The lint columns the matrix always shows, caught or not.
LINT_COLUMNS = tuple(
    f"lint:{rule}" for rule in ("R001", "R005", "R008", "R009", "R010", "plans")
)
STATIC = ("lint", "locks")
_FINDING = re.compile(r"^\S+:\d+:\d+: ([A-Z]\d{3}) ", re.MULTILINE)


def check_corpus(root: Path = ROOT) -> None:
    """Stop loudly unless every record applies exactly once at ``root``."""
    problems = []
    names = [mutation.name for mutation in MUTATIONS]
    for name in sorted({name for name in names if names.count(name) > 1}):
        problems.append(f"{name}: duplicate mutation name")
    for mutation in MUTATIONS:
        if mutation.category not in CATEGORIES:
            problems.append(f"{mutation.name}: unknown category {mutation.category}")
        count = (root / mutation.file).read_text(encoding="utf-8").count(mutation.old)
        if count != 1:
            problems.append(
                f"{mutation.name}: old text occurs {count} times in {mutation.file}"
            )
    if problems:
        raise SystemExit("mutation corpus is stale:\n  " + "\n  ".join(problems))


def _snapshot(root: Path, target: Path) -> None:
    """Copy the working tree's files, so later edits cannot reach a run."""
    listing = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, check=True, capture_output=True,
    ).stdout.decode()
    for name in listing.split("\0"):
        if name and (root / name).is_file():
            destination = target / name
            destination.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, destination)


def _run(checker: str, workdir: Path) -> tuple[bool, object, str]:
    """(caught, value, output) for one checker over one mutated copy.

    A dynamic checker's failure counts only if a second run fails too: the
    suites hold a few timing-sensitive tests that fail alone under load.
    """
    caught, value, output = _run_once(checker, workdir)
    if caught and checker not in STATIC:
        again, second, output = _run_once(checker, workdir)
        return again, [value, second], output
    return caught, value, output


def _run_once(checker: str, workdir: Path) -> tuple[bool, object, str]:
    command, extra_env, timeout = COMMANDS[checker]
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), **extra_env}
    if checker != "sanitizer":
        env.pop("REPRO_SANITIZE", None)
    # Its own process group: a mutation that breaks a server's shutdown
    # leaves `repro serve` subprocesses behind, and they die with the group.
    with subprocess.Popen(
        command, cwd=workdir, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, start_new_session=True,
    ) as proc:
        try:
            output, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            output = None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    if output is None:
        return True, "timeout", ""
    return proc.returncode != 0, proc.returncode, output


def _lint_columns(output: str) -> dict[str, int]:
    """Findings per lint column in ``repro lint`` output."""
    columns: dict[str, int] = {}
    for code in _FINDING.findall(output):
        columns[f"lint:{code}"] = columns.get(f"lint:{code}", 0) + 1
    failed_plans = len(re.findall(r"^plan \S+\s+FAIL", output, re.MULTILINE))
    if failed_plans:
        columns["lint:plans"] = failed_plans
    return columns


def run_mutation(
    mutation: Mutation | None, checkers: list[str], base: Path
) -> list[dict]:
    """Every record for one mutation (``None``: the unmutated tree)."""
    name = mutation.name if mutation is not None else "none"
    workdir = base.parent / name
    records = []
    try:
        shutil.copytree(base, workdir)
        if mutation is not None:
            path = workdir / mutation.file
            text = path.read_text(encoding="utf-8").replace(mutation.old, mutation.new, 1)
            path.write_text(text, encoding="utf-8")
        for checker in checkers:
            started = time.perf_counter()
            caught, value, output = _run(checker, workdir)
            seconds = round(time.perf_counter() - started, 2)
            common = {
                "mutation": name,
                "category": mutation.category if mutation is not None else "none",
                "seconds": seconds,
            }
            if checker == "lint":
                columns = _lint_columns(output)
                if caught and not columns:
                    columns = {"lint:crash": 1}
                for column, count in sorted(columns.items()):
                    records.append({
                        "name": f"{name}/{column}", "checker": column,
                        "value": count, "threshold": ">= 1 finding", "pass": True,
                        **common,
                    })
                records.append({
                    "name": f"{name}/lint", "checker": "lint", "value": value,
                    "threshold": "exit != 0", "pass": caught, **common,
                })
            else:
                records.append({
                    "name": f"{name}/{checker}", "checker": checker, "value": value,
                    "threshold": "exit != 0", "pass": caught, **common,
                    **({"tail": output.strip().splitlines()[-3:]} if caught else {}),
                })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return records


def caught_columns(records: list[dict]) -> dict[str, set[str]]:
    """Mutation -> columns that caught it (the bare ``lint`` row excluded)."""
    caught: dict[str, set[str]] = {}
    for record in records:
        caught.setdefault(record["mutation"], set())
        if record["pass"] and record["checker"] != "lint":
            caught[record["mutation"]].add(record["checker"])
    return caught


def _in_run(column: str, checkers: list[str]) -> bool:
    return column.split(":", 1)[0] in checkers


def load_matrix() -> dict[str, list[str]]:
    return json.loads(MATRIX.read_text(encoding="utf-8")) if MATRIX.exists() else {}


def write_matrix(caught: dict[str, set[str]], checkers: list[str]) -> None:
    matrix = load_matrix()
    for mutation, columns in caught.items():
        if mutation == "none":
            continue
        kept = {
            column for column in matrix.get(mutation, []) if not _in_run(column, checkers)
        }
        matrix[mutation] = sorted(kept | columns)
    order = [mutation.name for mutation in MUTATIONS]
    matrix = {name: matrix[name] for name in order if name in matrix}
    MATRIX.write_text(json.dumps(matrix, indent=1) + "\n", encoding="utf-8")


def regressions(caught: dict[str, set[str]], checkers: list[str]) -> list[str]:
    """Matrix catches, among this run's checkers, that no longer happen."""
    lost = []
    for mutation, columns in load_matrix().items():
        if mutation not in caught:
            continue
        for column in columns:
            if _in_run(column, checkers) and column not in caught[mutation]:
                lost.append(f"{mutation}: no longer caught by {column}")
    return lost


def markdown(matrix: dict[str, list[str]]) -> str:
    """The README catch matrix: one row per mutation, ``U`` marks a unique catch."""
    found = {column for caught in matrix.values() for column in caught}
    extra = sorted(found - set(LINT_COLUMNS) - set(CHECKERS))
    columns = [*LINT_COLUMNS, *extra, *CHECKERS[1:]]
    lines = [
        "| mutation | category | " + " | ".join(columns) + " |",
        "| --- | --- |" + " --- |" * len(columns),
    ]
    by_name = {mutation.name: mutation for mutation in MUTATIONS}
    for name, caught in matrix.items():
        cells = [
            ("**U**" if len(caught) == 1 else "x") if column in caught else ""
            for column in columns
        ]
        lines.append(
            f"| `{name}` | {by_name[name].category} | " + " | ".join(cells) + " |"
        )
    unique: dict[str, list[str]] = {}
    for name, caught in matrix.items():
        if len(caught) == 1:
            unique.setdefault(caught[0], []).append(name)
    lines.append("")
    for column in columns:
        names = ", ".join(f"`{name}`" for name in unique.get(column, [])) or "none"
        lines.append(f"- {column} — unique: {names}")
    missed = [f"`{name}`" for name, caught in matrix.items() if not caught]
    lines.append(f"- caught by nothing: {', '.join(missed) or 'none'}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkers", default=",".join(CHECKERS))
    parser.add_argument("--only", nargs="*", default=None, help="mutation names")
    parser.add_argument("--jobs", type=int, default=1, help="mutations run at once")
    parser.add_argument("--records", default=None, help="append JSON lines here")
    parser.add_argument("--write-matrix", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--markdown", action="store_true")
    args = parser.parse_args(argv)

    if args.markdown:
        print(markdown(load_matrix()))
        return 0
    checkers = [name for name in args.checkers.split(",") if name]
    unknown = sorted(set(checkers) - set(CHECKERS))
    if unknown:
        parser.error(f"unknown checkers {unknown}; choose from {list(CHECKERS)}")
    if args.jobs > 1 and set(checkers) - set(STATIC):
        # The suites and chaos share /dev/shm and the orphan checks read it.
        parser.error("--jobs > 1 is for the static checkers (lint, locks) only")
    check_corpus()
    scratch = Path(tempfile.mkdtemp(prefix="mutations-"))
    base = scratch / "base"
    _snapshot(ROOT, base)
    selected = [
        mutation for mutation in MUTATIONS
        if args.only is None or mutation.name in args.only
    ]
    targets: list[Mutation | None] = [None, *selected]

    records: list[dict] = []
    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        futures = [
            pool.submit(run_mutation, target, checkers, base) for target in targets
        ]
        for future in futures:
            batch = future.result()
            records.extend(batch)
            if args.records:
                with open(args.records, "a", encoding="utf-8") as sink:
                    for record in batch:
                        sink.write(json.dumps(record) + "\n")
            mutation = batch[0]["mutation"] if batch else "?"
            hit = sorted(caught_columns(batch).get(mutation, ()))
            print(f"{mutation}: {', '.join(hit) or 'caught by nothing'}", flush=True)
    shutil.rmtree(scratch, ignore_errors=True)

    caught = caught_columns(records)
    if "none" in caught and caught["none"]:
        print(f"unmutated tree fails {sorted(caught['none'])}", file=sys.stderr)
        return 1
    if args.write_matrix:
        write_matrix(caught, checkers)
    if args.check:
        lost = regressions(caught, checkers)
        for line in lost:
            print(f"REGRESSION {line}", file=sys.stderr)
        return 1 if lost else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
