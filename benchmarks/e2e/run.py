#!/usr/bin/env python3
"""The end-to-end benchmark: one command, six workloads, eight metrics.

    python3 benchmarks/e2e/run.py --workload serve_mixed --seed 1 --seconds 10 --trace 0

runs one workload in a fresh subprocess (the interner and the peak RSS are per
process), prints every metric by name with its unit, checks the program's
outputs, and ends with the one-line JSON result the benchmark contract asks
for.  ``--trace 1`` is the traced run that gives the per-layer metrics.

Without ``--workload`` every workload runs ``--rounds`` times and the medians
and quartiles are written to ``results/``; ``--compare A.json B.json`` reads
two such files and says, per workload and metric, whether B is within the
bound ``BENCHMARK.json`` fixes.  ``--smoke`` is a seconds-long self-test on
small inputs.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RESULTS = HERE / "results"

#: A workload process that runs longer than this is killed and reported as
#: failed, not waited for.
CHILD_TIMEOUT_S = 150.0
EXIT_FAILED, EXIT_UNMEASURED = 1, 3


def load_spec() -> dict:
    """``BENCHMARK.json`` is the one place metric names, units and bounds live."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# The workload process
# ----------------------------------------------------------------------
def end_to_end(window, setup_s: float, cpu_seconds: float, rss_mb: float) -> dict:
    """The end-to-end metrics of one window, as measured.

    Every workload has one operation (request, step, batch), so throughput and
    latency exist on all of them: ``requests_per_s`` and ``steps_per_s`` are
    both operations per second, ``measure_p50_ms`` and ``batch_s`` both the
    median time of one operation.  README.md says which name is native where.
    """
    throughput = window.ops / window.busy
    median = statistics.median(window.latencies)
    return {
        "setup_s": setup_s,
        "requests_per_s": throughput,
        "steps_per_s": throughput,
        "measure_p50_ms": median * 1e3,
        "batch_s": median,
        "cpu_ms_per_op": cpu_seconds * 1e3 / window.ops,
        "peak_rss_mb": rss_mb,
    }


def at_reference_speed(raw: dict, spec: dict, slowdown: dict) -> dict:
    """Times divided, rates multiplied by how much slower than the reference
    the machine ran while they were measured (see calibrate.py)."""
    scaled = {}
    for metric in spec["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        factor = slowdown["setup" if name == "setup_s" else "window"]
        if unit in ("s", "ms"):
            scaled[name] = raw[name] / factor
        elif unit == "1/s":
            scaled[name] = raw[name] * factor
        else:
            scaled[name] = raw[name]
    return scaled


def run_workload(args: argparse.Namespace) -> int:
    """Runs in the child process; prints the full record as its last line."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np
    from workloads import WORKLOADS, Unmeasured

    spec = load_spec()
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, args.workdir)
    except Unmeasured as exc:
        print(f"unmeasured: {exc}")
        return EXIT_UNMEASURED
    record: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "seconds": args.seconds, "smoke": args.smoke}
    try:
        if args.trace:
            workload.setup()
            trace_path = RESULTS / f"trace_{args.workload}.jsonl"
            with open(trace_path, "w", encoding="utf-8") as trace_file:
                window, layers = workload.traced(args.seconds, trace_file)
            record["checks"] = workload.check()
            layers.update(workload.late_layers)
            layers["measure_p95_ms"] = float(np.percentile(window.latencies, 95)) * 1e3
            names = [metric["name"] for metric in spec["per_layer"]]
            missing = workload.unavailable_metrics(names)
            # A layer this workload does not touch did no work: 0, not absent.
            values = {
                name: None if name in missing else layers.get(name, 0.0) for name in names
            }
            record["unavailable"] = missing
            record["trace_file"] = str(trace_path.relative_to(ROOT))
        else:
            calibrator = workload.calibrator
            setups = []
            for repeat in range(1 if args.smoke else workload.setup_repeats):
                if repeat:
                    workload.teardown()
                calibrator.tick()
                started = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - started)
                for _ in range(3):
                    calibrator.tick()
                workload.after_setup()
            slowdown = {"setup": calibrator.slowdown()}
            cpu_before = workload.cpu_seconds() - calibrator.cpu_seconds
            window = workload.window(args.seconds)
            cpu = workload.cpu_seconds() - calibrator.cpu_seconds - cpu_before
            slowdown["window"] = calibrator.slowdown()
            rss = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                + workload.children_peak_rss_mb()
            )
            if not window.ops:
                print(f"failed: no operation completed: {window.errors}")
                return EXIT_FAILED
            raw = end_to_end(window, statistics.median(setups), cpu, rss)
            values = at_reference_speed(raw, spec, slowdown)
            record.update(samples=len(window.latencies), setups_s=setups,
                          slowdown=slowdown, as_measured=raw)
            record["checks"] = workload.check()
    finally:
        workload.teardown()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record.update(
        attempted=window.ops + window.failed,
        failed=window.failed,
        errors=window.errors,
        correct=all(verdict == "ok" for verdict in record["checks"].values()),
        metrics={name: {"value": value, "unit": units[name]} for name, value in values.items()},
        detail=workload.detail,
    )
    print(json.dumps(record))
    return 0


# ----------------------------------------------------------------------
# The parent: spawn, time out, clean up
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict | int:
    """One workload in its own process: its record, or a non-zero exit code."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"failed: the program's sources are not under {ROOT / 'src'}")
        return EXIT_FAILED
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    shm = Path("/dev/shm")
    shm_before = set(os.listdir(shm)) if shm.is_dir() else set()
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--workdir", str(workdir),
    ] + (["--smoke"] if smoke else [])
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        try:
            output, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"failed: {workload} did not finish within {CHILD_TIMEOUT_S:g} s; killed")
            return EXIT_FAILED
    finally:
        # Every exit path: no process of the workload (pool workers included)
        # survives, and nothing it wrote outside results/ stays behind.
        if child.poll() is None or child.returncode != 0:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
            if shm.is_dir():
                for name in set(os.listdir(shm)) - shm_before:
                    if name.startswith("psm_"):
                        (shm / name).unlink(missing_ok=True)
        shutil.rmtree(workdir, ignore_errors=True)
    lines = output.strip().splitlines()
    if child.returncode != 0:
        print("\n".join(lines[-3:]) or f"failed: {workload} exited {child.returncode}")
        return child.returncode
    return json.loads(lines[-1])


def show(record: dict) -> None:
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"{'traced' if record['trace'] else 'untraced'}  {record['seconds']:g} s")
    for name, metric in record["metrics"].items():
        if metric["value"] is None:
            print(f"  {name:45s} null  ({record['unavailable'][name]})")
        else:
            print(f"  {name:45s} {metric['value']:.6g} {metric['unit']}")
    print(f"  ops_attempted {record['attempted']}  ops_failed {record['failed']}")
    if "slowdown" in record:
        print("  machine slowdown against the reference speed (already divided out): "
              + "  ".join(f"{k} {v:.3f}" for k, v in record["slowdown"].items()))
    for name, verdict in record["checks"].items():
        print(f"  check {name}: {verdict}")
    for error in record["errors"]:
        print(f"  error: {error}")


def contract_line(record: dict) -> str:
    """The last line of standard output the benchmark contract asks for."""
    metrics = {
        name: {"value": 0.0 if metric["value"] is None else metric["value"],
               "unit": metric["unit"]}
        for name, metric in record["metrics"].items()
    }
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


# ----------------------------------------------------------------------
# All workloads, several rounds; comparing two result files
# ----------------------------------------------------------------------
def fingerprint() -> dict:
    import sqlite3

    import numpy

    mount, kind = "", "unknown"
    with open("/proc/mounts", encoding="utf-8") as mounts:
        for line in mounts:
            _, point, fstype = line.split()[:3]
            if str(RESULTS).startswith(point) and len(point) > len(mount):
                mount, kind = point, fstype
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "pool_start_method": os.environ.get("REPRO_SHARD_START_METHOD", "spawn"),
        "ledger_filesystem": kind,
        "platform": platform.platform(),
    }


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "samples": values}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "samples": values}


def run_all(args: argparse.Namespace) -> int:
    spec = load_spec()
    summary: dict = {"fingerprint": fingerprint(), "seed": args.seed, "rounds": args.rounds,
                     "seconds": args.seconds, "smoke": args.smoke, "workloads": {}}
    status = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        # Round r uses seed + r: the spread then covers the inputs as well as
        # the machine, which is how the benchmark is accepted.
        runs = [
            spawn(name, args.seed + round_, args.seconds, 0, args.smoke)
            for round_ in range(args.rounds)
        ]
        if args.trace:
            runs.append(spawn(name, args.seed, args.seconds, 1, args.smoke))
        records = [run for run in runs if isinstance(run, dict)]
        for record in records:
            show(record)
        if len(records) < len(runs) or not all(
            record["correct"] and not record["failed"] for record in records
        ):
            status = EXIT_FAILED
        untraced = [record for record in records if not record["trace"]]
        traced = [record for record in records if record["trace"]]
        summary["workloads"][name] = {
            "why": entry["why"],
            "end_to_end": {
                metric["name"]: dict(
                    quartiles([r["metrics"][metric["name"]]["value"] for r in untraced]),
                    unit=metric["unit"],
                )
                for metric in spec["end_to_end"]
                if untraced
            },
            "per_layer": traced[0]["metrics"] if traced else {},
            "unavailable": traced[0]["unavailable"] if traced else {},
            "checks": [record["checks"] for record in records],
            "attempted": [record["attempted"] for record in records],
            "failed": [record["failed"] for record in records],
            "detail": (traced or untraced or [{}])[0].get("detail", {}),
        }
    path = Path(args.output) if args.output else RESULTS / f"e2e_seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return status


def compare(base_path: str, other_path: str) -> int:
    """Per workload x end-to-end metric: both medians, their ratio (base = the
    first file), the quartile spread, and the verdict against the bound."""
    spec = load_spec()
    base = json.loads(Path(base_path).read_text(encoding="utf-8"))["workloads"]
    other = json.loads(Path(other_path).read_text(encoding="utf-8"))["workloads"]
    status = 0
    print(f"{'workload':15s} {'metric':15s} {'base':>11s} {'other':>11s} "
          f"{'other/base':>10s} {'spread':>7s} {'bound':>6s}  verdict")
    for name in base:
        for metric in spec["end_to_end"]:
            a = base[name]["end_to_end"].get(metric["name"])
            b = other.get(name, {}).get("end_to_end", {}).get(metric["name"])
            if not a or not b:
                continue
            ratio = b["median"] / a["median"]
            worse = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            spread = max((x["q3"] - x["q1"]) / x["median"] for x in (a, b))
            if spread > metric["bound"]:
                verdict = "unresolved"  # the runs disagree among themselves by more
            elif worse > metric["bound"]:
                verdict, status = "regressed", EXIT_FAILED
            else:
                verdict = "within-bound"
            print(f"{name:15s} {metric['name']:15s} {a['median']:11.5g} {b['median']:11.5g} "
                  f"{ratio:10.4f} {spread:7.1%} {metric['bound']:6.0%}  {verdict}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only (the driver's form)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, nargs="?", const=1)
    parser.add_argument("--rounds", type=int, default=3, help="runs per workload without --workload")
    parser.add_argument("--smoke", action="store_true", help="small inputs, one round, seconds")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "OTHER"))
    parser.add_argument("--output", help="where the all-workloads summary goes")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else float(load_spec()["run_seconds"])
    if args.smoke:
        args.rounds = 1
    if args.child:
        return run_workload(args)
    # A terminated parent must still reach the clean-up in spawn().
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(EXIT_FAILED))
    if args.workload is None:
        return run_all(args)
    if args.workload not in {entry["name"] for entry in load_spec()["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    record = spawn(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    if not isinstance(record, dict):
        return record
    show(record)
    print(contract_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
