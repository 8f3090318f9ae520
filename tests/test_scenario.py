"""Scenario loading, validation, and the built-in two-sandbox setup."""

import json

import pytest

from mqsim.errors import ParseError, ValidationError
from mqsim.scenario import build, builtin_scenario, load_scenario


def table1():
    return builtin_scenario("table1")


class TestLoad:
    def test_builtin_resolves(self):
        raw = builtin_scenario("table1.json")
        sc = load_scenario(raw)
        assert len(sc.raw["sandboxes"]) == 2
        assert len(sc.raw["sandboxes"][0]["vcpus"]) == 5
        assert len(sc.raw["sandboxes"][1]["vcpus"]) == 4

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

    def test_tick_size_configurable(self):
        raw = table1()
        raw["tick_ns"] = 2000  # 2 us ticks halve the tick counts per second
        sc = load_scenario(raw)
        assert sc.run_until_us == 12 * 500_000
        raw["tick_ns"] = 0
        with pytest.raises(ValidationError, match="tick_ns"):
            load_scenario(raw)

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
        raw = table1()
        raw["sandboxes"][0]["admission"] = "exactt"
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

    def test_migration_time_in_scenario_ticks(self):
        """``at_s`` counts scenario seconds, as ``run_until_s`` does: with
        2 us ticks the request lands after 2.5M ticks (5 s), at the first
        depletion of the migrated VCPU plus the 200-tick delay."""
        raw = table1()
        raw["tick_ns"] = 2000
        built = build(load_scenario(raw))
        built.sim.run_until(3_000_000)
        requests = [r.t for r in built.sim.trace.rows if r.kind == "mig_request"]
        assert requests == [2_530_200]
