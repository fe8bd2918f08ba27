"""Self-test of the benchmark harness (not of the program).

Outside ``testpaths``; run it explicitly::

    python3 -m pytest benchmarks/e2e/test_harness.py -q

It runs every workload once on the ``--smoke`` inputs, so it takes about a
minute.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = run.load_spec()
NAMES = [entry["name"] for entry in SPEC["workloads"]]


# ----------------------------------------------------------------------
# Every named metric is present, with its unit, on every workload
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke_records():
    return {
        (name, trace): run.spawn(name, 7, 0.5, trace, True)
        for name in NAMES
        for trace in (0, 1)
    }


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_present_with_unit(smoke_records, name):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        record = smoke_records[name, trace]
        assert isinstance(record, dict), f"{name} trace={trace} exited {record}"
        assert record["correct"] and record["failed"] == 0, record["checks"]
        assert record["attempted"] >= 1
        expected = {metric["name"]: metric["unit"] for metric in SPEC[group]}
        assert {k: v["unit"] for k, v in record["metrics"].items()} == expected
        line = json.loads(run.contract_line(record))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    untraced = smoke_records[name, 0]["metrics"]
    assert all(metric["value"] > 0 for metric in untraced.values())


@pytest.mark.parametrize("name", ["serve_mixed", "serve_durable"])
def test_replay_share_equals_cache_hit_ratio(smoke_records, name):
    record = smoke_records[name, 1]
    assert record["checks"]["cache_hits_equal_replays"] == "ok"
    hit_ratio = record["metrics"]["service.cache.hit_ratio"]["value"]
    assert hit_ratio == record["detail"]["replay_share_generated"]
    assert 0.1 < hit_ratio < 0.4  # a quarter of the requests are replays


def test_trace_file_has_spans_with_parents(smoke_records):
    record = smoke_records["serve_durable", 1]
    lines = (run.ROOT / record["trace_file"]).read_text(encoding="utf-8").splitlines()
    spans = [json.loads(line) for line in lines]
    assert len(spans) == record["detail"]["trace_spans"] > 0
    assert {"name", "start", "end", "parent", "rid", "thread"} <= set(spans[0])
    assert any(span["name"] == "persistence.charge" and span["parent"] >= 0 for span in spans)


# ----------------------------------------------------------------------
# Inputs come from the seed
# ----------------------------------------------------------------------
def test_request_lists_follow_the_seed():
    mix = workloads.ServeMixed.mix
    first = workloads.generate_requests(3, "serve_mixed", 4, mix, 200)
    assert first == workloads.generate_requests(3, "serve_mixed", 4, mix, 200)
    assert first != workloads.generate_requests(4, "serve_mixed", 4, mix, 200)
    for requests in first:
        replays = [r for r in requests if r.replay_of is not None]
        assert 0.15 < len(replays) / len(requests) < 0.35
        for request in replays:
            origin = requests[request.replay_of]
            assert origin.replay_of is None
            assert (origin.session, origin.query, origin.epsilon) == (
                request.session, request.query, request.epsilon)
    fresh = [r.epsilon for requests in first for r in requests if r.replay_of is None]
    assert len(fresh) == len(set(fresh))


# ----------------------------------------------------------------------
# The correctness checks fire on a corrupted result
# ----------------------------------------------------------------------
@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def _served(cls, workdir):
    workload = cls(5, True, workdir)
    workload.setup()
    window = workload.window(0.4)
    assert window.ops and not window.failed
    return workload


def test_check_a_replay_must_be_identical_and_free(workdir):
    workload = _served(workloads.ServeMixed, workdir)
    try:
        index, position = next(
            (i, p)
            for i, replies in enumerate(workload.replies)
            for p in range(len(replies))
            if workload.requests[i][p].replay_of is not None and replies[p]["values"]
        )
        workload.replies[index][position]["values"][0][1] += 1e-9
        checks = workload.check()
    finally:
        workload.teardown()
    assert checks["replays_identical_and_free"] != "ok"
    assert checks["budget_equals_charged"] == "ok"


def test_check_a_budget_must_equal_acknowledged_charges(workdir):
    workload = _served(workloads.ServeMixed, workdir)
    try:
        workload.charged["s0"] += 0.001  # a charge no reply acknowledged
        checks = workload.check()
    finally:
        workload.teardown()
    assert checks["budget_equals_charged"] != "ok"
    assert checks["replays_identical_and_free"] == "ok"


def test_check_b_durable_spend_must_survive_restart(workdir):
    workload = _served(workloads.ServeDurable, workdir)
    try:
        assert workload.check()["durable_spend_survives_restart"] == "ok"
        workload.charged["s0"] += 0.001
        assert workload._check_reopened() != "ok"
    finally:
        workload.teardown()
    assert not os.listdir(workdir)  # the ledger directory is gone


def test_check_c_chain_must_repeat_and_stay_synchronized(workdir):
    workload = workloads.McmcConverged(5, True, workdir)
    workload.setup()
    workload.after_setup()
    workload.probe_accepts.append(workload.probe_accepts[0])
    assert set(workload.check().values()) == {"ok"}
    workload.probe_accepts.append(workload.probe_accepts[0] + 1)
    honest = workload.synth.distances
    calls = []

    def drifting():
        calls.append(1)
        return {name: value + (len(calls) - 1) * 1e-6 for name, value in honest().items()}

    workload.synth.distances = drifting
    checks = workload.check()
    assert checks["accepted_count_repeats"] != "ok"
    assert checks["resynchronize_moves_nothing"] != "ok"


def test_check_d_batches_must_agree_with_each_other_and_the_reference(workdir):
    workload = workloads.AnalystBatch(5, True, workdir)
    workload.setup()
    assert workload.window(0.2).ops
    assert set(workload.check().values()) == {"ok"}
    workload.differing = 1
    honest = workload._measure

    def skewed(graph, executor):
        elapsed, releases = honest(graph, executor)
        if executor == "eager":
            record, value = releases[0][0]
            releases[0][0] = (record, value + 1e-3)
        return elapsed, releases

    workload._measure = skewed
    checks = workload.check()
    assert checks["same_seed_same_release"] != "ok"
    assert checks["columnar_equals_eager_on_prefix"] != "ok"


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="shard_scan needs two cores")
def test_check_e_shards_must_equal_vectorized_and_leave_no_segment(workdir):
    workload = workloads.ShardScan(5, True, workdir)
    leftover = Path("/dev/shm/psm_e2e_harness_selftest")
    try:
        workload.setup()
        assert workload.window(0.2).ops
        workload.results[0], workload.results[2] = workload.results[2], workload.results[0]
        leftover.write_bytes(b"x")
        checks = workload.check()
    finally:
        leftover.unlink(missing_ok=True)
        workload.teardown()
    assert checks["sharded_equals_vectorized"] != "ok"
    assert "psm_e2e_harness_selftest" in checks["no_shm_segment_left"]


# ----------------------------------------------------------------------
# Robustness of the harness itself
# ----------------------------------------------------------------------
def test_shard_scan_is_unmeasured_below_two_cores(monkeypatch, workdir, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    with pytest.raises(workloads.Unmeasured):
        workloads.ShardScan(1, True, workdir)
    args = type("Args", (), dict(workload="shard_scan", seed=1, smoke=True, workdir=workdir,
                                 trace=0, seconds=0.1))
    assert run.run_workload(args) == run.EXIT_UNMEASURED
    assert capsys.readouterr().out.startswith("unmeasured")


def test_a_hung_workload_is_killed_and_reported(monkeypatch, capsys):
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.3)
    assert run.spawn("serve_durable", 1, 5.0, 0, True) == run.EXIT_FAILED
    assert "killed" in capsys.readouterr().out
    assert not list(run.RESULTS.glob(f"work-{os.getpid()}*"))


def test_a_missing_layer_is_null_with_a_reason():
    tracer = Tracer()
    with tracer:
        assert not tracer.wrap("repro.no_such_backend:Engine.push", "engine.push")
        assert not tracer.wrap("repro.core.budget:BudgetLedger.no_such", "core.charge")
        assert tracer.wrap("repro.core.budget:BudgetLedger.charge", "core.charge")
    assert set(tracer.unavailable) == {"engine.push"}  # core.charge has one live target
    workload = workloads.McmcExplore(1, True, "unused")
    workload.unavailable.update(tracer.unavailable)
    names = [metric["name"] for metric in SPEC["per_layer"]]
    missing = workload.unavailable_metrics(names)
    assert set(missing) == set(workloads.SPAN_FEEDS["engine.push"])
    assert "no_such_backend" in missing["dataflow.push_apply_us"]


def test_wrappers_come_off_again():
    from repro.core.budget import BudgetLedger
    from repro.columnar.dataset import ColumnarDataset
    from repro.inference.columnar_scoring import IncrementalColumnarScoreEngine as Engine

    before = (vars(BudgetLedger)["charge"], vars(ColumnarDataset)["from_weighted"])
    with Tracer() as tracer:
        tracer.wrap("repro.core.budget:BudgetLedger.charge", "a")
        tracer.wrap("repro.columnar.dataset:ColumnarDataset.from_weighted", "b")
        tracer.wrap(
            "repro.inference.columnar_scoring:IncrementalColumnarScoreEngine.log_score", "c")
        assert "log_score" in vars(Engine)  # inherited: wrapped on the subclass
    assert (vars(BudgetLedger)["charge"], vars(ColumnarDataset)["from_weighted"]) == before
    assert "log_score" not in vars(Engine)


def test_self_time_is_duration_minus_children():
    import time

    module = type(sys)("e2e_selftest_module")
    module.inner = lambda: time.sleep(0.02)
    module.outer = lambda: (time.sleep(0.01), module.inner(), module.inner())
    sys.modules[module.__name__] = module
    try:
        with Tracer() as tracer:
            tracer.wrap("e2e_selftest_module:inner", "inner")
            tracer.wrap("e2e_selftest_module:outer", "outer")
            module.outer()
        totals = tracer.totals()
    finally:
        del sys.modules[module.__name__]
    assert totals["inner"][0] == 2 and totals["outer"][0] == 1
    calls, total, own = totals["outer"]
    assert total == pytest.approx(own + totals["inner"][1])
    assert 0.005 < own < 0.03
    (_, children), = tracer.children("outer")
    assert [child[0] for child in children] == ["inner", "inner"]


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def _summary(**medians):
    def entry(value, spread=0.01):
        return {"median": value, "q1": value * (1 - spread / 2), "q3": value * (1 + spread / 2)}

    return {"workloads": {"serve_mixed": {"end_to_end": {
        name: entry(*value) if isinstance(value, tuple) else entry(value)
        for name, value in medians.items()}}}}


def test_compare_names_regressed_unresolved_and_within_bound(tmp_path, capsys):
    base = tmp_path / "a.json"
    other = tmp_path / "b.json"
    base.write_text(json.dumps(_summary(requests_per_s=100.0, measure_p50_ms=10.0, setup_s=1.0)))
    other.write_text(json.dumps(_summary(
        requests_per_s=70.0,  # higher is better: 30 % fewer is past the 25 % bound
        measure_p50_ms=10.2,  # 2 % slower: inside it
        setup_s=(1.0, 0.9),  # the runs disagree among themselves by 90 %
    )))
    assert run.compare(str(base), str(other)) == run.EXIT_FAILED
    rows = {line.split()[1]: line.split()[-1] for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows == {"requests_per_s": "regressed", "measure_p50_ms": "within-bound",
                    "setup_s": "unresolved"}
    assert run.compare(str(base), str(base)) == 0
