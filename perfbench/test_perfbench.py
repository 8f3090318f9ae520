"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*args, env=None, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                           *args], capture_output=True, text=True, cwd=cwd,
                          env=env, timeout=120)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_streams_depend_only_on_the_seed(name):
    wl = workloads.WORKLOADS[name]
    first, _ = run.generate(wl, 7)
    again, _ = run.generate(wl, 7)
    other, _ = run.generate(wl, 8)
    assert first == again
    assert first != other
    assert len(first) == wl.prefix


def test_self_time_subtracts_children():
    rec = spans.SpanRecorder()
    rec.spans = [["a", 0, 100, -1], ["b", 10, 40, 0], ["c", 50, 70, 0],
                 ["b", 15, 20, 1]]
    tab = rec.span_table()
    assert tab["a"]["self_ns"] == 50
    assert tab["b"]["calls"] == 2
    assert tab["b"]["total_ns"] == 35
    assert tab["b"]["self_ns"] == 30


def test_recorder_leaves_results_alone_and_restores_functions():
    from mqsim import core, experiments, scenario
    from mqsim.bounds import oracle
    before = (scenario.build, core.Simulator.run_until, core.Simulator.__init__,
              experiments.run_pingpong, oracle.brute_force_worst_rtt)
    wl = workloads.WORKLOADS["rtt-sweep"]
    runner = wl.make_runner()
    prefix, _ = run.generate(wl, 3)
    plain = [runner(job).digest_item for job in prefix[:5]]
    rec = spans.SpanRecorder()
    rec.install()
    try:
        traced = []
        for job in prefix[:5]:
            traced.append(runner(job).digest_item)
            rec.drain()
    finally:
        rec.uninstall()
    after = (scenario.build, core.Simulator.run_until, core.Simulator.__init__,
             experiments.run_pingpong, oracle.brute_force_worst_rtt)
    assert plain == traced
    assert before == after
    layer = rec.layer_metrics()
    assert layer["experiments.point_setup_s"][0] > 0
    assert layer["core.events_posted"][0] > 0
    assert layer["ipc.overshoot_ratio"][0] >= 1
    assert layer["oracle.grid_points"][0] == 0


def test_budget_allowance_covers_a_drifting_period():
    class V:
        period = 100_000
    # at +61 ppm a 100000-tick true window holds 10006 ticks of a 10000 budget
    assert workloads.budget_allowance(V, [0, 61]) >= 6
    assert workloads.budget_allowance(V, [0]) == 0


@pytest.mark.parametrize("parent,change,better,bound,expect", [
    ([10.0] * 10, [12.0] * 10, "higher", 0.1, "improved"),
    ([10.0] * 10, [8.0] * 10, "higher", 0.1, "worse"),
    ([10.0] * 10, [9.5] * 10, "higher", 0.1, "unchanged"),
    ([5.0, 15.0] * 5, [10.5] * 10, "lower", 0.1, "unresolved"),
    ([3] * 10, [3] * 10, "lower", None, "unchanged"),
])
def test_verdicts(parent, change, better, bound, expect):
    pairs = list(zip(parent, change))
    assert compare.verdict(parent, change, pairs, better, bound) == expect


def test_a_job_that_raises_is_charged_its_time():
    def runner(job):
        time.sleep(0.01)
        raise ValueError("boom")
    tally = run.Tally()
    tally.run(workloads.WORKLOADS["bound-sweep"], runner, {}, keep_digest=True)
    assert tally.attempted == tally.failed == 1
    assert tally.busy_ns >= 10_000_000
    assert tally.digest == ["raised"]


def _record(seed, trace, failed=0, gate=0, value=10.0):
    metric = "ops_per_s" if trace == 0 else "oracle.grid_points"
    return {"workload": "bound-sweep", "seed": seed, "trace": trace,
            "result_digest": "d", "gate": {"oracle_over_w_shifted": gate},
            "extra": {}, "env": {},
            "result": {"attempted": 100, "failed": failed,
                       "metrics": {metric: {"value": value, "unit": "1/s"}}}}


@pytest.mark.parametrize("failed,gate,expect", [
    (0, 3, "improved"),
    (1, 3, "unresolved"),
    (0, 4, "unresolved"),
])
def test_a_gain_does_not_count_when_more_fails(failed, gate, expect):
    parent = [_record(s, 0) for s in range(10)] + [_record(1, 1, gate=3)]
    change = ([_record(s, 0, failed=failed if s == 0 else 0, value=12.0)
               for s in range(10)] + [_record(1, 1, gate=gate)])
    report = io.StringIO()
    compare.report(parent, change, SPEC, out=report)
    row = next(line for line in report.getvalue().splitlines()
               if " ops_per_s " in line)
    assert row.split()[-1] == expect
    assert ("NO GAIN COUNTS" in report.getvalue()) == (expect == "unresolved")


def test_runs_pair_by_seed_only():
    report = io.StringIO()
    compare.report([_record(1, 0)], [_record(2, 0)], SPEC, out=report)
    assert "bound-sweep  no common seeds" in report.getvalue()
    assert " ops_per_s " not in report.getvalue()


def _last_two(stdout: str):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_runs_print_every_metric_and_agree_on_the_digest(tmp_path):
    records, span_file = tmp_path / "runs.jsonl", tmp_path / "spans.jsonl"
    out0 = _bench("--workload", "bound-tiny", "--seed", "5", "--seconds", "1",
                  "--trace", "0", "--out", str(records))
    out1 = _bench("--workload", "bound-tiny", "--seed", "5", "--seconds", "1",
                  "--trace", "1", "--out", str(records), "--spans", str(span_file))
    assert out0.returncode == 0, out0.stderr
    assert out1.returncode == 0, out1.stderr
    rec0, res0 = _last_two(out0.stdout)
    rec1, res1 = _last_two(out1.stdout)
    for res in (res0, res1):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 100
    assert set(res0["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(res1["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert all(v["value"] > 0 for v in res0["metrics"].values())
    assert rec0["result_digest"] == rec1["result_digest"]
    assert rec0["env"]["oracle_backend"] == rec1["env"]["oracle_backend"]
    with open(span_file) as fh:
        names = {json.loads(line)["name"] for line in fh}
    assert names == {"oracle.brute_force_worst_rtt", "formulas.comm_breakdown"}
    recs = compare.load_records(str(records))
    assert [r["trace"] for r in recs] == [0, 1]
    report = io.StringIO()
    compare.report(recs, recs, SPEC, out=report)
    text = report.getvalue()
    assert "bound-tiny   result_digest over 2 runs: identical" in text
    assert "ops_per_s" in text and "oracle.grid_points" in text


def test_refuses_a_forced_oracle_backend():
    env = dict(os.environ, MQSIM_ORACLE_BACKEND="python")
    out = _bench("--workload", "bound-tiny", "--seed", "1", "--seconds", "1",
                 env=env)
    assert out.returncode != 0
    assert out.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _bench("--workload", "bound-tiny", "--seed", "1", "--seconds", "1",
                 cwd=str(tmp_path))
    assert out.returncode != 0
    assert "correct" not in out.stdout
