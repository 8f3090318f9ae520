"""Scenario loading, validation, and the built-in two-sandbox setup."""

import contextlib
import itertools
import json
import re
import signal

import pytest
from hypothesis import event, given, settings, strategies as st

from mqsim.errors import MqsimError, ParseError, ValidationError
from mqsim.metrics import budget_law_violations, finish_run, replenishment_conserved
from mqsim.scenario import build, builtin_scenario, load_scenario


def table1():
    return builtin_scenario("table1")


def vcpu(raw, sandbox: int, index: int) -> dict:
    return raw["sandboxes"][sandbox]["vcpus"][index]


class TestLoad:
    def test_builtin_resolves(self):
        raw = builtin_scenario("table1.json")
        sc = load_scenario(raw)
        assert len(sc.spec["sandboxes"]) == 2
        assert len(sc.spec["sandboxes"][0]["vcpus"]) == 5
        assert len(sc.spec["sandboxes"][1]["vcpus"]) == 4

    def test_unknown_builtin(self):
        with pytest.raises(ParseError):
            builtin_scenario("nope")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(table1()))
        sc = load_scenario(str(path))
        assert sc.run_until_us == 12_000_000

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ParseError):
            load_scenario(str(path))

    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_scenario("/does/not/exist.json")


class TestValidation:
    def test_schema_required(self):
        raw = table1()
        raw["schema"] = 2
        with pytest.raises(ValidationError):
            load_scenario(raw)

    def test_budget_exceeding_period(self):
        raw = table1()
        raw["sandboxes"][0]["vcpus"][0]["c_us"] = 200_000
        with pytest.raises(ValidationError, match="c_us"):
            load_scenario(raw)

    def test_admission_checked_at_load(self):
        raw = table1()
        # the first sandbox's set totals 0.9 utilization: beyond the
        # rate-monotonic utilization bound, fine under the exact test
        raw["sandboxes"][0]["admission"] = "ll"
        with pytest.raises(ValidationError, match="admission"):
            load_scenario(raw)

    def test_channel_refs_checked(self):
        raw = table1()
        raw["channels"][0]["b"] = "nowhere"
        with pytest.raises(ValidationError, match="channel"):
            load_scenario(raw)

    def test_migration_refs_checked(self):
        raw = table1()
        raw["migrations"][0]["space"] = "ghost"
        with pytest.raises(ValidationError, match="address space"):
            load_scenario(raw)

    @pytest.mark.parametrize("change, message", [
        ({"mode": "bogus"}, "mode 'bogus'"),
        ({"to": "sb1"}, "another sandbox than 'sb1'"),
        ({"from": "sb2", "to": "sb1"}, "no address space 'canny_as' in 'sb2'"),
    ], ids=["unknown-mode", "to-itself", "space-not-in-source"])
    def test_migration_entry_checked(self, change, message):
        raw = table1()
        raw["migrations"][0].update(change)
        with pytest.raises(ValidationError, match=message):
            load_scenario(raw)

    @pytest.mark.parametrize("where, value", [
        ("sample_period_s", 0), ("sample_period_s", 1e-7),
        ("sample_period_s", -1), ("sample_period_s", True),
        ("run_until_s", "12"), ("run_until_s", 0), ("at_s", -1),
        ("at_s", "5"),
    ])
    def test_times_checked(self, where, value):
        raw = table1()
        (raw["migrations"][0] if where == "at_s" else raw)[where] = value
        with pytest.raises(ValidationError, match=where):
            load_scenario(raw)

    @pytest.mark.parametrize("key, value", [
        ("n_bytes", 2047), ("delta_s", "abc"), ("delta_s", "-1/8"),
        ("m_bytes", "2048"), ("delta_d", True),
    ])
    def test_channel_work_checked(self, key, value):
        raw = table1()
        raw["channels"][0][key] = value
        with pytest.raises(ValidationError, match="channel 'main'"):
            load_scenario(raw)

    def test_missing_cost_model_warns(self):
        raw = table1()
        raw.pop("cost_model", None)
        sc = load_scenario(raw)
        assert any("cost_model" in w for w in sc.warnings)

    def test_duplicate_task_names(self):
        raw = table1()
        raw["sandboxes"][1]["vcpus"][2]["task"]["name"] = "canny"
        with pytest.raises(ValidationError, match="duplicate"):
            load_scenario(raw)

    def test_unknown_vcpu_kind(self):
        # "Main" must not skip admission and then be scheduled as a main VCPU
        raw = table1()
        raw["sandboxes"][0]["vcpus"].append(
            {"id": "extra", "c_us": 90_000, "t_us": 100_000, "kind": "Main",
             "task": {"type": "busy", "name": "extra"}})
        with pytest.raises(ValidationError, match="kind"):
            load_scenario(raw)

    def test_unknown_wait_mode(self):
        raw = table1()
        raw["sandboxes"][0]["vcpus"][2]["task"]["wait"] = "bsy"
        with pytest.raises(ValidationError, match="wait"):
            load_scenario(raw)

    def test_unknown_admission_mode(self):
        for mode in ("exactt", "cap"):
            raw = table1()
            raw["sandboxes"][0]["admission"] = mode
            with pytest.raises(ValidationError, match="admission"):
                load_scenario(raw)

    def test_unknown_admission_mode_without_main_vcpus(self):
        raw = table1()
        raw["sandboxes"][1] = {
            "id": "sb2", "admission": "bogus",
            "vcpus": [{"id": "io2", "c_us": 1_000, "t_us": 10_000,
                       "kind": "io"}]}
        with pytest.raises(ValidationError, match="admission"):
            load_scenario(raw)

    def test_task_on_an_io_vcpu(self):
        # an I/O VCPU queues only I/O completions, so its task would never run
        raw = table1()
        raw["sandboxes"][1]["vcpus"].append(
            {"id": "io2", "c_us": 1_000, "t_us": 10_000, "kind": "io",
             "task": {"type": "busy", "name": "spin", "iteration_cost_us": 100}})
        with pytest.raises(ValidationError, match="vcpu 'io2': task"):
            load_scenario(raw)

    def test_second_channel_between_one_pair(self):
        # establish_channel returns the first channel for the pair, so the
        # second would rebind its endpoints at build
        raw = table1()
        raw["channels"].append({"id": "aux", "a": "sb2", "b": "sb1"})
        with pytest.raises(ValidationError, match="'main' and 'aux'"):
            load_scenario(raw)

    @pytest.mark.parametrize("key", ["ipi_costt", "poll_cost"])
    def test_unknown_cost_model_key(self, key):
        raw = table1()
        raw["cost_model"] = {key: 10}
        with pytest.raises(ValidationError, match=key):
            load_scenario(raw)

    @pytest.mark.parametrize("costs", [
        {"ipi_cost": -1},
        {"page_copy_nocache": 1, "page_copy_cache": 2},
    ], ids=["negative", "no-cache-cheaper"])
    def test_cost_model_value_refused(self, costs):
        raw = table1()
        raw["cost_model"] = costs
        with pytest.raises(ValidationError, match="cost_model"):
            load_scenario(raw)


# table1 mutations that once raised an untyped exception, loaded silently,
# or failed only at build or during the run, and what the error must name
GAPS = {
    "c_us-string": (lambda r: vcpu(r, 0, 0).update(c_us="20000"),
                    "vcpu 'shell1': c_us '20000'"),
    "drift-string": (lambda r: r["sandboxes"][0]["clock"].update(drift_ppm="x"),
                     "sandbox 'sb1': clock: drift_ppm 'x'"),
    "drift-floor": (lambda r: r["sandboxes"][1]["clock"].update(drift_ppm=-10**6),
                    "sandbox 'sb2': clock: "),
    "total_pages-string": (
        lambda r: vcpu(r, 0, 3)["address_space"].update(total_pages="370"),
        "vcpu 'cannyv': address_space: total_pages '370'"),
    "sandboxes-object": (lambda r: r.update(sandboxes={"sb1": {}}),
                         "scenario: sandboxes {"),
    "vcpu-id-missing": (lambda r: vcpu(r, 0, 0).pop("id"),
                        "sandbox 'sb1': vcpu 0: missing key 'id'"),
    "c_us-fraction": (lambda r: vcpu(r, 0, 0).update(c_us=20000.5),
                      "vcpu 'shell1': c_us 20000.5"),
    "c_us-bool": (lambda r: vcpu(r, 0, 0).update(c_us=True),
                  "vcpu 'shell1': c_us True"),
    "highest_priority-string": (
        lambda r: vcpu(r, 0, 1).update(highest_priority="yes"),
        "vcpu 'mig1': highest_priority 'yes'"),
    "role-unknown": (lambda r: vcpu(r, 0, 1).update(role="migrator"),
                     "vcpu 'mig1': role 'migrator'"),
    "run_untill_s": (lambda r: r.update(run_untill_s=12),
                     "scenario: unknown key 'run_untill_s'"),
    "c_uss": (lambda r: vcpu(r, 0, 0).update(c_uss=20000),
              "vcpu 'shell1': unknown key 'c_uss'"),
    "tick_ns": (lambda r: r.update(tick_ns=2000), "scenario: unknown key 'tick_ns'"),
    "task-type-unknown": (lambda r: vcpu(r, 0, 0)["task"].update(type="bogus"),
                          "vcpu 'shell1': task: type 'bogus'"),
    "task-channel-unknown": (lambda r: vcpu(r, 0, 2)["task"].update(channel="aux"),
                             "task 'comms1': channel 'aux' names no channel"),
    "second-sender": (lambda r: vcpu(r, 1, 2)["task"].update(type="pingpong_send"),
                      "channel 'main': needs one sender and one receiver"),
    "k_us-negative": (lambda r: r["channels"][0].update(k_us=-5),
                      "channel 'main': k_us -5"),
    "free-poll": (lambda r: (r["channels"][0].update(poll_cost_us=0,
                                                     poll_interval_us=0),
                             vcpu(r, 0, 2)["task"].update(wait="sleep"),
                             vcpu(r, 1, 2)["task"].update(wait="sleep")),
                  "channel 'main': "),
    "pace_us-zero": (lambda r: vcpu(r, 0, 2)["task"].update(pace_us=0),
                     "vcpu 'comms1': task: pace_us 0"),
    "iteration_cost_us-zero": (
        lambda r: vcpu(r, 0, 3)["task"].update(iteration_cost_us=0),
        "vcpu 'cannyv': task: iteration_cost_us 0"),
    "io_cycle-free": (lambda r: vcpu(r, 0, 0).update(task={
        "type": "io_cycle", "compute_us": 0, "io_latency_us": 0}),
        "task 'shell1': compute + io_latency"),
}


class TestGaps:
    @pytest.mark.parametrize("name", list(GAPS))
    def test_rejected_at_load_naming_object_and_key(self, name):
        mutate, names = GAPS[name]
        raw = table1()
        mutate(raw)
        with pytest.raises(ValidationError, match=re.escape(names)):
            load_scenario(raw)

    def test_thread_migration_needs_a_destination_thread(self):
        raw = table1()
        del raw["sandboxes"][1]["vcpus"][1]  # mig2
        with pytest.raises(ValidationError,
                           match="migration 0: 'sb2' has no migration thread"):
            load_scenario(raw)

    def test_address_space_needs_a_task(self):
        raw = table1()
        vcpu(raw, 0, 1)["address_space"] = vcpu(raw, 0, 3).pop("address_space")
        with pytest.raises(ValidationError,
                           match=re.escape("vcpu 'mig1': address_space: task_controls []")):
            load_scenario(raw)

    def test_task_controls_name_existing_tasks(self):
        raw = table1()
        vcpu(raw, 0, 3)["address_space"]["task_controls"] = ["ghost"]
        with pytest.raises(ValidationError, match=re.escape("task_controls ['ghost']")):
            load_scenario(raw)


def _paths(node, path=()):
    """(path, value) for every key and list item below ``node``."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _mutations():
    """(path, kind) for every way to mutate table1 at one place."""
    yield (), "unknown-key"
    for path, value in _paths(table1()):
        if isinstance(path[-1], str):
            yield path, "drop"
        if isinstance(value, dict):
            yield path, "unknown-key"
        yield path, "type"
        if type(value) in (int, float):
            yield path, "range"
        if type(value) is str:
            yield path, "enum"


MUTATIONS = list(_mutations())
OTHER_TYPES = ["x", 7, 0.5, True, None, [], {}]
OUT_OF_RANGE = [-1, 0, -1_000_000, 10**12]
EVENT_CAP = 100_000  # a 1 s table1 run dispatches about 450 events


@contextlib.contextmanager
def wall_limit(seconds: float):
    """Fail instead of hanging when one event's dispatch never returns, as a
    loop of free steps inside a single event would."""
    def expire(signum, frame):
        raise AssertionError(f"livelock: a 1 s run took over {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.sampled_from(MUTATIONS), st.sampled_from(OTHER_TYPES),
       st.sampled_from(OUT_OF_RANGE))
def test_mutated_table1_fails_at_load_or_runs(mutation, other, number):
    """One mutation of table1 either fails to load with a typed error, or
    the scenario builds and runs 1 s without livelock, conserving every
    VCPU's replenishments and, off drifting clocks, its budget law."""
    raw = table1()
    path, kind = mutation
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1] if path else None
    if kind == "drop":
        del parent[key]
    elif kind == "unknown-key":
        (parent[key] if path else raw)["bogus_key"] = 1
    elif kind == "type":
        parent[key] = other if type(other) is not type(parent[key]) else "x"
    elif kind == "range":
        parent[key] = number
    else:
        parent[key] = "bogus"
    try:
        sc = load_scenario(raw)
    except MqsimError:
        event("rejected at load")
        return
    assert kind != "unknown-key", "an unknown key was accepted"
    event("ran")
    built = build(sc)
    dispatched = itertools.count(1)
    with wall_limit(10):
        built.sim.run_until(1_000_000, stop=lambda: next(dispatched) > EVENT_CAP)
    assert built.sim.now == 1_000_000, "livelock: the event cap stopped the run"
    finish_run(built.sim)
    moved = {t.job.vcpu.id: t.job.source for t in built.triggers
             if t.job is not None and t.job.state == "completed"}
    for sb in built.sim.sandboxes.values():
        for v in sb.vcpus.values():
            assert replenishment_conserved(v), v.id
            drifts = {sb.clock.drift_ppm}
            if v.id in moved:
                drifts.add(built.sim.sandbox(moved[v.id]).clock.drift_ppm)
            if drifts == {0}:
                assert budget_law_violations(v) == [], v.id


class TestBuild:
    def test_wiring(self):
        built = build(load_scenario(table1()))
        assert set(built.sim.sandboxes) == {"sb1", "sb2"}
        assert "canny" in built.tasks
        assert built.channels["main"].task_a is built.tasks["comms1"]
        assert built.channels["main"].task_b is built.tasks["comms2"]
        assert len(built.triggers) == 1
        assert "canny_as" in built.sim.sandboxes["sb1"].spaces

    def test_channel_bytes_become_works(self):
        """2048 bytes at 1/8 tick per byte each way."""
        prof = build(load_scenario(table1())).channels["main"].profile
        assert (prof.request_work, prof.response_work) == (256, 256)

    def test_channel_needs_both_sides(self):
        raw = table1()
        raw["sandboxes"][1]["vcpus"] = [
            v for v in raw["sandboxes"][1]["vcpus"]
            if v.get("task", {}).get("name") != "comms2"]
        with pytest.raises(ValidationError, match="sender and one receiver"):
            build(load_scenario(raw))

    def test_build_is_deterministic(self):
        a = build(load_scenario(table1()))
        b = build(load_scenario(table1()))
        a.sim.run_until(2_000_000)
        b.sim.run_until(2_000_000)
        assert a.sim.trace.hash() == b.sim.trace.hash()

    def test_io_blocked_space_is_retried(self):
        """A request refused because a task of the space waits on I/O is
        retried after the next depletion, as a refused eligible one is,
        instead of raising out of the run."""
        raw = table1()
        vcpu(raw, 0, 3)["task"] = {"type": "io_cycle", "name": "canny",
                                   "compute_us": 100, "io_latency_us": 50_000}
        built = build(load_scenario(raw))
        built.sim.run_until(6_000_000)
        assert built.triggers[0].job is None

    def test_migration_time_in_scenario_ticks(self):
        """``at_s`` counts seconds of 1 us ticks, as ``run_until_s`` does:
        the request lands after 5M ticks (5 s), at the first depletion of
        the migrated VCPU plus the 200-tick delay."""
        built = build(load_scenario(table1()), trace="rows")
        built.sim.run_until(6_000_000)
        requests = [r.t for r in built.sim.trace.rows if r.kind == "mig_request"]
        assert requests == [5_030_200]
