"""Command-line interface for regenerating the paper's experiments.

Every table, figure and ablation of the evaluation — the twelve records of
:data:`repro.experiments.EXPERIMENTS` — can be produced from the shell without
writing any Python::

    python -m repro list
    python -m repro table1
    python -m repro figure4 --scale 0.5 --steps 2.0
    python -m repro all

``repro <experiment>`` runs the record's ``run`` (the same parametrisation the
paper suite ``benchmarks/test_paper.py`` asserts on), prints its table, then
prints every paper claim that does not hold to stderr: the exit code is 1 if
any claim failed, 0 otherwise (``repro all``: 1 if any experiment failed).
``--scale`` and ``--steps`` multiply the per-experiment default graph sizes
and MCMC lengths exactly like the ``REPRO_BENCH_SCALE`` / ``REPRO_BENCH_STEPS``
environment variables; ``--epsilon``, ``--pow`` and ``--seed`` override the
corresponding experiment parameters.

The introspection half of the query API is also exposed::

    python -m repro explain            # list the named queries
    python -m repro explain tbd        # plan tree + per-source stability bounds
    python -m repro explain jdd --epsilon 0.1
    python -m repro explain tbi --executor auto --rows 5000   # backend routing
    python -m repro explain tbd --verify --epsilon 0.1        # static stability check

so is the static analyzer (see README "Static analysis & privacy
invariants")::

    python -m repro lint                # every checker over src/repro + named plans
    python -m repro lint path/to/code   # every checker over that path
    python -m repro locks               # the lock hierarchy and order graph

as well as the concurrent measurement service (see README "Serving
measurements")::

    python -m repro serve --port 8080 --max-pending 256
    python -m repro serve --ledger ledger.db --rate 50
    python -m repro serve --ledger ledger.db --deadline-ms 2000 --breaker-threshold 5

and the randomized chaos harness (see README "Failure model & degraded
modes")::

    python -m repro chaos --seed 1234 --steps 50
    python -m repro chaos --seed 1234 --steps 50 --kill-cycles
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .analyses import NAMED_QUERIES
from .core.executor import EXECUTORS
from .experiments import EXPERIMENTS, ExperimentConfig, default_config, format_table
from .inference.synthesizer import DEFAULT_BACKEND, SCORING_BACKENDS

__all__ = ["main", "build_parser"]


class _ShutdownRequested(BaseException):
    """Raised by ``repro serve``'s SIGTERM/SIGINT handler to unwind the server.

    Not an :class:`Exception`, for the reason ``KeyboardInterrupt`` is not:
    the signal may land while the accept loop is handing a connection to its
    thread, and ``socketserver`` reports and swallows every ``Exception``
    raised there — the server would go on serving.
    """


def _run_explain(
    query: str | None,
    epsilon: float | None,
    executor: str = "eager",
    rows: int = 0,
    verify: bool = False,
) -> int:
    """Print the plan tree of a named analysis query (``repro explain``).

    Every node is annotated with the backend the chosen ``--executor`` would
    evaluate the plan on; ``--rows`` registers that many synthetic edge
    records so the size-based routing of ``--executor auto`` is visible.
    ``--verify`` annotates every node with its static stability bound and
    appends the shard-portability check from :mod:`repro.lint.plans`.
    """
    from .core import PrivacySession

    if query is None:
        width = max(len(name) for name in NAMED_QUERIES)
        print(
            "usage: repro explain <query> [--epsilon E] [--executor NAME] "
            "[--rows N] [--verify]\n\navailable queries:"
        )
        for name in sorted(NAMED_QUERIES):
            description, _ = NAMED_QUERIES[name]
            print(f"  {name.ljust(width)}  {description}")
        return 0
    if query not in NAMED_QUERIES:
        print(
            f"unknown query {query!r}; run 'repro explain' for the list",
            file=sys.stderr,
        )
        return 2
    description, builder = NAMED_QUERIES[query]
    # The plan is data-independent; --rows only sizes the synthetic dataset
    # that drives the auto executor's routing decision.
    session = PrivacySession(executor=executor)
    edges = session.protect("edges", [(index, index + 1) for index in range(rows)])
    queryable = builder(edges)
    print(f"{query} — {description}\n")
    print(queryable.explain(epsilon, verify=verify))
    return 0


def _lint_plans() -> int:
    """Statically verify every named query plan (bare ``repro lint``).

    For each query in :data:`repro.analyses.NAMED_QUERIES`: derive the
    stability bounds (every node must declare a stability constant) and
    confirm the plan is portable to shard workers.  Returns the number of
    error-severity findings.
    """
    from .core import PrivacySession
    from .lint import format_bounds, verify_plan

    session = PrivacySession()
    edges = session.protect("edges", [])
    errors = 0
    width = max(len(name) for name in NAMED_QUERIES)
    for name in sorted(NAMED_QUERIES):
        _, builder = NAMED_QUERIES[name]
        report = verify_plan(builder(edges).plan)
        problems = [issue for issue in report.issues if issue.severity == "error"]
        if problems:
            errors += len(problems)
            print(f"plan {name.ljust(width)}  FAIL  {format_bounds(report.bounds)}")
            for issue in problems:
                print(f"  error [{issue.kind}] {issue.node}: {issue.message}")
        else:
            print(f"plan {name.ljust(width)}  OK    {format_bounds(report.bounds)}")
    return errors


def _lint_target(query: str | None) -> tuple["Path", "Path"] | None:
    """Resolve the lint/locks target and its package root (None: bad path)."""
    from pathlib import Path

    if query is not None:
        target = Path(query)
        if not target.exists():
            return None
    else:
        target = Path(__file__).resolve().parent
    if target.is_dir():
        root = target
    else:
        # Climb out of the enclosing package so a single-file lint sees the
        # same package-relative path (and release-package gating) as a
        # directory lint would.
        root = target.resolve().parent
        while (root / "__init__.py").exists() and root.parent != root:
            root = root.parent
    return target, root


def _run_lint(args: argparse.Namespace) -> int:
    """Run every static checker (``repro lint [PATH]``).

    The rules (R001, R005), the lock-order analysis (R008, R009) and the
    taint analysis (R010) run over PATH, by default the installed
    ``repro`` package — and then, with no PATH, every named query plan is
    verified too.  Exit codes: ``0`` clean, ``1`` any finding or failed
    plan, ``2`` a path that does not exist or cannot be linted.
    """
    from .lint import LintError, format_issues, lint_tree

    resolved = _lint_target(args.query)
    if resolved is None:
        print(f"lint: path {args.query!r} does not exist", file=sys.stderr)
        return 2
    target, root = resolved
    try:
        issues = lint_tree([target], root)
    except LintError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    if issues:
        print(format_issues(issues))
    plan_errors = 0
    if args.query is None:
        if issues:
            print()
        plan_errors = _lint_plans()
    if not issues and not plan_errors:
        print(f"lint: {target}: clean")
    return 1 if issues or plan_errors else 0


def _run_locks(args: argparse.Namespace) -> int:
    """Print the declared lock hierarchy and observed lock-order graph.

    ``repro locks`` runs the concurrency analysis ``repro lint`` runs but
    renders the full picture — every declared lock with its level and
    flags, every observed may-hold edge, and whether the graph is a DAG.
    Exit 1 if the graph has a cycle (a potential deadlock).
    """
    from .lint.concurrency import (
        build_concurrency_analysis,
        lock_cycles,
        render_lock_report,
    )

    resolved = _lint_target(args.query)
    if resolved is None:
        print(f"locks: path {args.query!r} does not exist", file=sys.stderr)
        return 2
    target, root = resolved
    analysis = build_concurrency_analysis([target], root)
    print(render_lock_report(analysis))
    return 1 if lock_cycles(analysis) else 0


def _run_synth(args: argparse.Namespace, config: ExperimentConfig) -> int:
    """End-to-end synthesis demo: ``repro synth`` (Section 5.1 workflow).

    Generates an Erdős–Rényi graph, measures TbI, seeds a degree-matched
    graph, and fits it with MCMC on the chosen scoring backend — optionally
    with multi-chain search (``--chains``, on several cores with
    ``--processes``).
    """
    import numpy as np

    from .analyses import protect_graph, triangles_by_intersect_query
    from .core import PrivacySession
    from .graph.generators import erdos_renyi
    from .graph import statistics as graph_statistics
    from .inference import GraphSynthesizer
    from .inference.seed import seed_graph_from_edges

    steps = config.scaled_steps(2000)
    edges_count = args.edges
    graph = erdos_renyi(max(4, edges_count // 2), edges_count, rng=config.seed)
    session = PrivacySession(seed=config.seed)
    protected = protect_graph(session, graph, total_epsilon=float("inf"))
    measurement = triangles_by_intersect_query(protected).noisy_count(
        config.epsilon, query_name="tbi"
    )
    seed_graph, _ = seed_graph_from_edges(
        protected, config.epsilon, rng=np.random.default_rng(config.seed)
    )
    synthesizer = GraphSynthesizer(
        [measurement],
        seed_graph,
        pow_=config.pow_,
        rng=config.seed,
        backend=args.backend,
    )
    result = synthesizer.run(steps, chains=args.chains, processes=args.processes)
    if synthesizer.last_parallel_result is not None:
        rows = [
            (
                chain.index,
                chain.result.steps,
                chain.result.accepted,
                f"{chain.result.steps_per_second:.1f}",
                f"{chain.log_score:.3f}",
                graph_statistics.triangle_count(chain.graph),
            )
            for chain in synthesizer.last_parallel_result.chains
        ]
        best = synthesizer.last_parallel_result.best_index
    else:
        rows = [
            (
                0,
                result.steps,
                result.accepted,
                f"{result.steps_per_second:.1f}",
                f"{synthesizer.log_score:.3f}",
                synthesizer.triangle_count(),
            )
        ]
        best = 0
    print(
        format_table(
            ["chain", "steps", "accepted", "steps/s", "log score", "triangles"],
            rows,
            title=(
                f"Synthesis — backend={args.backend}, edges={edges_count}, "
                f"chains={args.chains}, processes={args.processes or 'off'}"
            ),
        )
    )
    print(
        f"\nbest chain: {best}  |  true triangles: "
        f"{graph_statistics.triangle_count(graph)}  |  "
        f"seed triangles: {graph_statistics.triangle_count(seed_graph)}"
    )
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant measurement service (``repro serve``).

    Serves the HTTP/JSON API of :mod:`repro.service.http` until interrupted.
    Sessions are created by clients (:class:`repro.service.ServiceClient` or
    plain ``curl``); each connection's thread runs the measurements it
    reads, each one its own ledger charge under its session's lock, and
    repeated identical measurements are answered from the released-answer
    cache at zero additional budget.

    ``--ledger FILE`` makes the service durable (budgets, sessions, audit
    log, and released answers survive crashes and restarts); the ledger
    store holds its file, so a second ``repro serve`` on a file another
    process serves exits 2.  SIGINT and SIGTERM shut down gracefully: stop
    accepting, finish the admitted requests, close the sqlite connection.
    """
    import signal
    import threading

    from .exceptions import PersistenceError
    from .service import serve

    def _handle(signum: int, frame: object) -> None:
        raise _ShutdownRequested()

    # Signals are delivered to the main thread only; when embedded in a
    # non-main thread (tests), fall back to KeyboardInterrupt handling.  The
    # stop signals stay blocked (pending, not lost) until the server exists
    # and its banner is out, so a stop sent straight after the banner
    # unwinds serve_forever (exit 0) instead of killing the process.
    stops = (signal.SIGTERM, signal.SIGINT)
    main = threading.current_thread() is threading.main_thread()
    if main:
        signal.pthread_sigmask(signal.SIG_BLOCK, stops)
        for stop in stops:
            signal.signal(stop, _handle)
    try:
        server = serve(
            host=args.host,
            port=args.port,
            max_pending=args.max_pending,
            executor=args.executor,
            verbose=args.verbose,
            ledger=args.ledger,
            rate_limit=args.rate,
            rate_burst=args.burst,
            max_total_pending=args.max_total_pending,
            deadline_ms=args.deadline_ms,
            breaker_threshold=args.breaker_threshold,
        )
    except PersistenceError:
        print(f"repro serve: {args.ledger} is served by another process", file=sys.stderr)
        return 2
    try:
        durable = f", ledger={args.ledger}" if args.ledger else ""
        # Flushed: a pipe is block-buffered, and the caller reads the port
        # off this line while serve_forever never returns.
        print(
            f"repro serve — listening on {server.url} "
            f"(max_pending={args.max_pending}, executor={args.executor}{durable})",
            flush=True,
        )
        if main:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, stops)
        server.serve_forever()
    except (_ShutdownRequested, KeyboardInterrupt):
        pass
    finally:
        # The accept loop ran on this thread and has unwound, or never
        # started.  Drain the service and close the sqlite connection
        # before the process exits.
        server.stop_serving()
    return 0


def _run_chaos(args: argparse.Namespace) -> int:
    """Run the randomized fault-injection harness (``repro chaos``).

    ``--steps N`` randomized fault schedules against a durable service;
    ``--kill-cycles`` switches to a real ``repro serve --ledger`` subprocess,
    SIGKILLed and restarted between fault cycles.  Exits non-zero when any
    of the four resilience invariants is violated (see README "Failure
    model & degraded modes").
    """
    from .resilience.chaos import run_chaos

    report = run_chaos(
        seed=args.seed if args.seed is not None else 0,
        steps=int(args.steps) if args.steps is not None else 50,
        kill_cycles=args.kill_cycles,
        executor=args.executor,
        verbose=args.verbose,
    )
    print(report.summary())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the wPINQ paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS)
        + [
            "list",
            "all",
            "explain",
            "lint",
            "locks",
            "synth",
            "serve",
            "chaos",
        ],
        help=(
            "which experiment to run ('list' to enumerate, 'all' for "
            "everything, 'explain' to print a query plan, 'lint' to run the "
            "privacy-invariant static analyzer, 'locks' to print the "
            "declared lock hierarchy and lock-order graph, 'synth' to run "
            "MCMC graph synthesis, 'serve' to run the HTTP measurement service, "
            "'chaos' to run the randomized fault-injection harness)"
        ),
    )
    parser.add_argument(
        "query",
        nargs="?",
        default=None,
        help=(
            "query name for 'explain' (omit to list the available queries); "
            "file or directory path for 'lint'/'locks' (defaults to the "
            "repro package)"
        ),
    )
    parser.add_argument("--scale", type=float, default=None, help="graph-size multiplier")
    parser.add_argument(
        "--steps",
        type=float,
        default=None,
        help="MCMC step multiplier; for 'chaos': number of steps (default 50)",
    )
    parser.add_argument("--epsilon", type=float, default=None, help="privacy parameter")
    parser.add_argument("--pow", dest="pow_", type=float, default=None, help="MCMC score sharpening")
    parser.add_argument("--seed", type=int, default=None, help="base random seed")
    parser.add_argument(
        "--executor",
        default="eager",
        choices=list(EXECUTORS),
        help=(
            "backend annotated by 'explain' (auto routes by input size); "
            "also the in-process session backend for 'chaos'"
        ),
    )
    parser.add_argument(
        "--rows",
        type=int,
        default=0,
        help="synthetic protected rows for 'explain' (drives 'auto' routing)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help=(
            "for 'explain': annotate every node with its static stability "
            "bound and append the shard-portability check"
        ),
    )
    parser.add_argument(
        "--edges", type=int, default=2000, help="for 'synth': edges of the input graph"
    )
    parser.add_argument(
        "--chains",
        type=int,
        default=1,
        help="for 'synth': independent MCMC chains (best one wins)",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=None,
        help=(
            "for 'synth': run the --chains chains in N worker processes "
            "(the same chains as in-process, on more than one core)"
        ),
    )
    parser.add_argument(
        "--backend",
        default=DEFAULT_BACKEND,
        choices=list(SCORING_BACKENDS),
        help="for 'synth': MCMC scoring backend",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="for 'serve': bind address"
    )
    parser.add_argument(
        "--port", type=int, default=8080, help="for 'serve': TCP port (0 = ephemeral)"
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=128,
        help="for 'serve': per-session pending-request bound (backpressure)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="for 'serve': log every HTTP request to stderr",
    )
    parser.add_argument(
        "--ledger",
        default=None,
        help=(
            "for 'serve': durable ledger file (sqlite, created if missing); "
            "budgets, sessions, audit log and released answers survive "
            "crashes and restarts"
        ),
    )
    parser.add_argument(
        "--kill-cycles",
        action="store_true",
        help=(
            "for 'chaos': drive a 'repro serve --ledger' subprocess, "
            "SIGKILLed and restarted between fault cycles"
        ),
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=None,
        help="for 'serve': per-session sustained requests/second (token bucket)",
    )
    parser.add_argument(
        "--burst",
        type=float,
        default=None,
        help="for 'serve': token-bucket burst capacity (default 2x --rate)",
    )
    parser.add_argument(
        "--max-total-pending",
        type=int,
        default=None,
        help="for 'serve': global pending bound across sessions (load shedding)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help=(
            "for 'serve': default end-to-end deadline (milliseconds) applied "
            "to measurements without an X-Repro-Deadline-Ms header; expired "
            "deadlines are refused before any budget is charged"
        ),
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=None,
        help=(
            "for 'serve': consecutive durable-ledger failures before the "
            "circuit breaker opens and measurements fail fast with 503"
        ),
    )
    return parser


def _configure(args: argparse.Namespace) -> ExperimentConfig:
    config = default_config()
    overrides = {}
    if args.scale is not None:
        overrides["graph_scale"] = args.scale
    if args.steps is not None:
        overrides["step_scale"] = args.steps
    if args.epsilon is not None:
        overrides["epsilon"] = args.epsilon
    if args.pow_ is not None:
        overrides["pow_"] = args.pow_
    if args.seed is not None:
        overrides["seed"] = args.seed
    return config.with_overrides(**overrides) if overrides else config


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.experiment == "explain":
        return _run_explain(
            args.query, args.epsilon, args.executor, args.rows, args.verify
        )
    if args.experiment == "lint":
        return _run_lint(args)
    if args.experiment == "locks":
        return _run_locks(args)
    if args.query is not None:
        parser.error(
            f"unexpected argument {args.query!r} "
            "(only 'explain', 'lint' and 'locks' take one)"
        )
    if args.experiment == "synth":
        return _run_synth(args, _configure(args))
    if args.experiment == "serve":
        return _run_serve(args)
    if args.experiment == "chaos":
        return _run_chaos(args)

    if args.experiment == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name in sorted(EXPERIMENTS):
            print(f"{name.ljust(width)}  {EXPERIMENTS[name].description}")
        return 0

    config = _configure(args)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    failed = False
    for name in names:
        experiment = EXPERIMENTS[name]
        result = experiment.run(config)
        print(experiment.render(result))
        print()
        for claim in experiment.claims(result, config):
            print(f"{name}: claim failed: {claim}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
