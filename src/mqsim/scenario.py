"""Scenario files: JSON descriptions of sandboxes, VCPUs, workloads, channels
and migration triggers, checked into a spec and built into a simulator.

The tables below map each key of an object to its rule (an int: the least
int, never a bool; a tuple: the values allowed; a type; or a converter) and
its default (``REQUIRED``: none; ``ABSENT``: left out, so that a task takes
its workload function's default).  A task's keys are its workload
function's parameters, with ``_us`` added for a time in 1 us ticks.  The
seconds of ``run_until_s``, ``sample_period_s`` and ``at_s`` become
``int(s * 1_000_000)`` ticks.  A ``ValidationError`` names the object and
key of an unknown or missing key, of a value its rule or object refuses,
and of a broken rule across entries: a repeated id, a dangling reference,
a channel without one sender and one receiver or sharing its sandboxes, a
failed admission test, a thread migration to a sandbox with no thread.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from fractions import Fraction

from mqsim import workloads
from mqsim.core import CostModel, Simulator
from mqsim.clock import SandboxClock
from mqsim.errors import (BlockedOnIo, DestinationBusy, NotEligible,
                          ParseError, ValidationError)
from mqsim.ipc import ExchangeProfile, establish_channel
from mqsim.migration import MIGRATION_MODES, AddressSpace, MigrationEngine
from mqsim.sched import ADMISSION_MODES, VCPU_KINDS, Sandbox, admit

REQUIRED, ABSENT = object(), object()


def _seconds(least: int):
    """A converter from seconds (an int or float) to at least ``least`` ticks."""
    def to_ticks(where: str, s):
        if type(s) in (int, float) and 0 <= s < float("inf") \
                and int(s * 1_000_000) >= least:
            return int(s * 1_000_000)
        raise ValidationError(f"{where} {s!r} is not seconds giving {least}+ ticks")
    return to_ticks


def _per_byte(where: str, cost):
    """A converter from a per-byte cost, a number or a string like "1/8", to
    a Fraction of ticks."""
    try:
        if type(cost) in (int, float, str) and (f := Fraction(cost)) >= 0:
            return f
    except (ValueError, ArithmeticError):
        pass
    raise ValidationError(f"{where} {cost!r} is not a non-negative number")


SCENARIO = {"schema": ((1,), REQUIRED), "cost_model": (dict, {}),
            "sandboxes": (list, REQUIRED), "channels": (list, []),
            "migrations": (list, []), "run_until_s": (_seconds(1), 10),
            "sample_period_s": (_seconds(1), 1)}
COST_MODEL = {f.name: (0, f.default) for f in fields(CostModel)}
SANDBOX = {"id": (str, REQUIRED), "admission": (ADMISSION_MODES, "ll"),
           "clock": (dict, {}), "vcpus": (list, [])}
CLOCK = {"offset_us": (int, 0), "drift_ppm": (int, 0)}  # SandboxClock's order
VCPU = {"id": (str, REQUIRED), "c_us": (1, REQUIRED), "t_us": (1, REQUIRED),
        "kind": (VCPU_KINDS, "main"), "role": (("migration", None), None),
        "highest_priority": (bool, ABSENT),  # for a migration thread if absent
        "task": (dict, ABSENT), "address_space": (dict, ABSENT)}
ADDRESS_SPACE = {"id": (str, REQUIRED), "total_pages": (0, 0),
                 "pde_count": (1, 1024), "pages_per_pde": (1, 1024),
                 "task_controls": (list, ABSENT),  # the VCPU's task if absent
                 "tss_limit": (0, 8)}
WAIT = (workloads.WAIT_MODES, ABSENT)
TASKS = {  # type: (workload function, table of its parameters)
    "busy": (workloads.busy_loop, {"iteration_cost_us": (1, ABSENT)}),
    "sleeper": (workloads.sleeper, {}),
    "logger": (workloads.periodic_logger,
               {"period_us": (1, ABSENT), "work_us": (0, ABSENT)}),
    "io_cycle": (workloads.io_cycle, {"compute_us": (0, ABSENT),
                 "io_latency_us": (0, ABSENT), "io_work_us": (0, ABSENT)}),
    "pingpong_send": (workloads.pingpong_sender, {
        "channel": (str, REQUIRED), "exchanges": (0, ABSENT), "wait": WAIT,
        "busy_wait_us": (0, ABSENT), "initial_sleep_us": (0, ABSENT),
        "pace_us": (1, ABSENT)}),
    "pingpong_recv": (workloads.pingpong_receiver, {
        "channel": (str, REQUIRED), "initial_sleep_us": (0, ABSENT), "wait": WAIT}),
}
TASK = {"type": (tuple(TASKS), REQUIRED), "name": (str, ABSENT)}  # VCPU id if absent
CHANNEL = {"id": (str, REQUIRED), "a": (str, REQUIRED), "b": (str, REQUIRED),
           "n_bytes": (0, 2048), "m_bytes": (0, 2048),
           "delta_s": (_per_byte, "1/8"), "delta_d": (_per_byte, "1/8"),
           "k_us": (0, 0), "poll_cost_us": (0, 10), "poll_interval_us": (0, 500)}
MIGRATION = {"at_s": (_seconds(0), 5), "space": (str, REQUIRED),
             "from": (str, REQUIRED), "to": (str, REQUIRED),
             "mode": (MIGRATION_MODES, "thread"), "pde_extra_delay_us": (0, 0),
             "delay_after_depletion_us": (0, 200)}


def _entry(name: str, raw, table: dict) -> dict:
    """``raw`` checked against ``table``, with its defaults filled in."""
    if type(raw) is not dict:
        raise ValidationError(f"{name} {raw!r} is not an object")
    out = {}
    for key, (rule, default) in table.items():
        value = raw.get(key, default)
        if value is REQUIRED:
            raise ValidationError(f"{name}: missing key {key!r}")
        if value is not ABSENT:
            out[key] = _check(f"{name}: {key}", rule, value)
    for key in raw:
        if key not in table:
            raise ValidationError(f"{name}: unknown key {key!r}")
    return out


def _check(where: str, rule, value):
    if type(rule) is int:
        ok, what = type(value) is int and value >= rule, f"an int >= {rule}"
    elif type(rule) is tuple:
        ok = any(type(value) is type(a) and value == a for a in rule)
        what = f"one of {rule}"
    elif type(rule) is type:
        ok, what = type(value) is rule, f"of type {rule.__name__}"
    else:
        return rule(where, value)
    if not ok:
        raise ValidationError(f"{where} {value!r} is not {what}")
    return value


def _entries(kind: str, parent: dict, key: str, table: dict) -> list:
    """Check the items of ``parent[key]`` against ``table`` in place, and
    name each by ``kind`` and its id (or its index): ``(name, entry)``s."""
    out = []
    for i, item in enumerate(parent[key]):
        ident = item.get("id") if type(item) is dict else None
        name = f"{kind} {ident if type(ident) is str else i!r}"
        out.append((name, _entry(name, item, table)))
    parent[key] = [entry for _, entry in out]
    return out


def _add(seen: dict, key, value, what: str):
    if key in seen:
        raise ValidationError(f"duplicate {what} {key!r}")
    seen[key] = value


def _call(name: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with a refusal named as ``name``'s."""
    try:
        return fn(*args, **kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{name}: {exc}") from None


def _program(task: dict, channel):
    """The task's workload function called with its parameters (at load,
    without its channel, so that the function checks them)."""
    fn, table = TASKS[task["type"]]
    args = {key.removesuffix("_us"): task[key] for key in table if key in task}
    if "channel" in table:
        args["channel"] = channel
    return fn(**args)


@dataclass
class Scenario:
    """A loaded scenario: its spec (defaults filled in, times in ticks, value
    objects built), run length, sample period and load-time warnings."""
    spec: dict
    warnings: list
    run_until_us: int
    sample_period_us: int


def load_scenario(path_or_dict) -> Scenario:
    """Parse and check a scenario file (or an already-decoded dict)."""
    raw = path_or_dict
    if not isinstance(raw, dict):
        try:
            with open(raw) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read scenario: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"scenario is not valid JSON: line {exc.lineno}, "
                             f"{exc.msg}") from exc
    spec = _entry("scenario", raw, SCENARIO)
    warnings = [] if "cost_model" in raw else ["cost_model missing: defaults applied"]
    spec["cost_model"] = _call("cost_model", CostModel, **_entry(
        "cost_model", spec["cost_model"], COST_MODEL))
    if not spec["sandboxes"]:
        raise ValidationError("scenario: sandboxes is empty")
    ids, vcpus, tasks, spaces, threads, ends = {}, {}, {}, {}, {}, {}
    for sb_name, sb in _entries("sandbox", spec, "sandboxes", SANDBOX):
        _add(ids, sid := sb["id"], sb, "sandbox")
        clock = _entry(f"{sb_name}: clock", sb["clock"], CLOCK)
        sb["clock"] = _call(f"{sb_name}: clock", SandboxClock, *clock.values())
        accepted = []
        for v_name, v in _entries(f"{sb_name}: vcpu", sb, "vcpus", VCPU):
            _add(vcpus, v["id"], v, "vcpu")
            if (c := v["c_us"]) > (t := v["t_us"]):
                raise ValidationError(f"{v_name}: c_us {c} exceeds t_us {t}")
            if v["kind"] == "main":
                verdict = admit(accepted, c, t, sb["admission"])
                if not verdict.accepted:
                    raise ValidationError(
                        f"{sb_name}: VCPU set fails {sb['admission']} admission "
                        f"at {v['id']!r} (util {float(verdict.utilization_after):.3f})")
                accepted.append((c, t))
            if v["role"] == "migration":
                _add(threads, sid, v, "migration thread in sandbox")
            v.setdefault("highest_priority", v["role"] == "migration")
            if (task := v.get("task")) is not None:
                # str(): a malformed type may be unhashable
                table = TASKS.get(str(task.get("type")), (None, {}))[1]
                task = v["task"] = _entry(f"{v_name}: task", task, TASK | table)
                task.setdefault("name", v["id"])
                _add(tasks, task["name"], (sid, v["id"]), "task name")
                _call(f"task {task['name']!r}", _program, task, None)
                if "channel" in task:
                    ends.setdefault(task["channel"], []).append(
                        (task["type"], sid, task["name"]))
            if "address_space" in v:
                s_name = f"{v_name}: address_space"
                space = _entry(s_name, v["address_space"], ADDRESS_SPACE)
                space.setdefault("task_controls", [] if task is None else [task["name"]])
                v["address_space"] = _call(s_name, AddressSpace, **space)
                _add(spaces, space["id"], (sid, space["task_controls"], s_name),
                     "address space")
    for sid, controls, s_name in spaces.values():
        homes = {tasks.get(t) if type(t) is str else None for t in controls}
        if len(homes) != 1 or None in homes or homes.pop()[0] != sid:
            raise ValidationError(f"{s_name}: task_controls {controls!r} must "
                                  f"name tasks of one VCPU in {sid!r}")
    pairs, channels = {}, {}
    for ch_name, ch in _entries("channel", spec, "channels", CHANNEL):
        _add(channels, ch["id"], ch_name, "channel")
        pair = frozenset((ch["a"], ch["b"]))
        if len(pair) < 2 or not pair <= ids.keys():
            raise ValidationError(f"{ch_name}: a and b must name two sandboxes")
        if pair in pairs:
            raise ValidationError(f"channels {pairs[pair]!r} and {ch['id']!r} "
                                  f"join one sandbox pair")
        pairs[pair] = ch["id"]
        works = [ch["n_bytes"] * ch["delta_s"], ch["m_bytes"] * ch["delta_d"]]
        if any(w.denominator != 1 for w in works):
            raise ValidationError(f"{ch_name}: works {works} are not whole ticks")
        ch["profile"] = _call(ch_name, ExchangeProfile, *map(int, works),
                              ch["k_us"], ch["poll_cost_us"], ch["poll_interval_us"])
    for cid, [(_, _, name), *_] in ends.items():
        if cid not in channels:
            raise ValidationError(f"task {name!r}: channel {cid!r} names no channel")
    for ch in spec["channels"]:
        found = sorted(ends.pop(ch["id"], []))
        if [end[:2] for end in found] != [("pingpong_recv", ch["b"]),
                                          ("pingpong_send", ch["a"])]:
            raise ValidationError(f"{channels[ch['id']]}: needs one sender and one "
                                  f"receiver, in {ch['a']!r} and {ch['b']!r}")
        ch["receiver"], ch["sender"] = (end[2] for end in found)
    for m_name, m in _entries("migration", spec, "migrations", MIGRATION):
        if m["space"] not in spaces or spaces[m["space"]][0] != m["from"]:
            raise ValidationError(f"{m_name}: no address space {m['space']!r} "
                                  f"in {m['from']!r}")
        if m["to"] not in ids or m["to"] == m["from"]:
            raise ValidationError(f"{m_name}: 'to' must name another sandbox "
                                  f"than {m['from']!r}, got {m['to']!r}")
        if m["mode"] == "thread" and m["to"] not in threads:
            raise ValidationError(f"{m_name}: {m['to']!r} has no migration thread")
    return Scenario(spec, warnings, spec.pop("run_until_s"),
                    spec.pop("sample_period_s"))


@dataclass
class BuiltScenario:
    sim: Simulator
    engine: MigrationEngine
    scenario: Scenario
    tasks: dict = field(default_factory=dict)
    vcpus: dict = field(default_factory=dict)
    channels: dict = field(default_factory=dict)
    triggers: list = field(default_factory=list)


def build(sc: Scenario, trace: str = "hash") -> BuiltScenario:
    """Instantiate a loaded scenario into a simulator ready to run, whose
    trace has mode ``trace`` (see ``SimTrace``)."""
    spec = sc.spec
    sim = Simulator(spec["cost_model"], trace)
    engine = MigrationEngine(sim)
    out = BuiltScenario(sim, engine, sc)
    for sb_spec in spec["sandboxes"]:
        sb = Sandbox(sim, sb_spec["id"], sb_spec["clock"], sb_spec["admission"])
        for v in sb_spec["vcpus"]:
            vcpu = out.vcpus[v["id"]] = sb.add_vcpu(
                v["id"], v["c_us"], v["t_us"], v["kind"], v["highest_priority"])
            if v["role"] == "migration":
                engine.create_migration_thread(sb, vcpu)
    for ch in spec["channels"]:
        out.channels[ch["id"]] = establish_channel(sim, ch["a"], ch["b"], ch["profile"])
    for sb_spec in spec["sandboxes"]:
        sb = sim.sandbox(sb_spec["id"])
        for v in sb_spec["vcpus"]:
            if "task" in v:
                task = v["task"]
                ch = out.channels[task["channel"]] if "channel" in task else None
                out.tasks[task["name"]] = sb.add_task(
                    task["name"], out.vcpus[v["id"]], program=_program(task, ch))
            if "address_space" in v:
                sb.spaces[v["address_space"].id] = v["address_space"]
    for ch in spec["channels"]:
        out.channels[ch["id"]].bind(out.tasks[ch["sender"]], out.tasks[ch["receiver"]])
    for mig in spec["migrations"]:
        out.triggers.append(MigrationTrigger(out, mig))
    for sb in sim.sandboxes.values():
        sb.touch()
    return out


class MigrationTrigger:
    """Arms a migration at a given time.  The request fires a configurable
    delay after the target VCPU's next budget-depletion transition, so the
    relative next-event time E_s is reproducible (period - budget - delay
    when the budget is consumed in one chunk)."""

    CHECK_STEP = 100

    def __init__(self, built: BuiltScenario, spec: dict):
        self.built = built
        self.spec = spec
        self.job = None
        self.seen_eligible = False
        built.sim.post_event(spec["at_s"], "mig-trigger", spec["from"], None,
                             lambda _: self._check())

    def _check(self):
        sim = self.built.sim
        src = sim.sandbox(self.spec["from"])
        space = src.spaces.get(self.spec["space"])
        if space is None:  # already migrated
            return
        if src.tasks[space.task_controls[0]].vcpu.eligible():
            self.seen_eligible = True
        elif self.seen_eligible:
            delay = self.spec["delay_after_depletion_us"]
            sim.post_event(sim.now + delay, "mig-trigger", self.spec["from"],
                           None, lambda _: self._fire())
            return
        sim.post_event(sim.now + self.CHECK_STEP, "mig-trigger",
                       self.spec["from"], None, lambda _: self._check())

    def _fire(self):
        try:
            self.job = self.built.engine.request_migration(
                self.spec["from"], self.spec["to"], self.spec["space"],
                mode=self.spec["mode"],
                pde_extra_delay=self.spec["pde_extra_delay_us"])
        except (NotEligible, DestinationBusy, BlockedOnIo):
            self.seen_eligible = False
            self._check()


TABLE1 = {
    "schema": 1,
    "sandboxes": [
        {
            "id": "sb1",
            "admission": "exact",
            "clock": {"offset_us": 0, "drift_ppm": 0},
            "vcpus": [
                {"id": "shell1", "c_us": 20_000, "t_us": 100_000,
                 "task": {"type": "sleeper", "name": "shell1"}},
                {"id": "mig1", "c_us": 10_000, "t_us": 50_000,
                 "role": "migration", "highest_priority": True},
                {"id": "comms1", "c_us": 10_000, "t_us": 100_000,
                 "task": {"type": "pingpong_send", "name": "comms1",
                          "channel": "main", "wait": "busy"}},
                {"id": "cannyv", "c_us": 20_000, "t_us": 100_000,
                 "task": {"type": "busy", "name": "canny",
                          "iteration_cost_us": 10_000},
                 "address_space": {"id": "canny_as", "total_pages": 370,
                                   "pde_count": 1024}},
                {"id": "logger1", "c_us": 20_000, "t_us": 100_000,
                 "task": {"type": "logger", "name": "logger1"}},
            ],
        },
        {
            "id": "sb2",
            "admission": "exact",
            "clock": {"offset_us": 0, "drift_ppm": 0},
            "vcpus": [
                {"id": "shell2", "c_us": 20_000, "t_us": 100_000,
                 "task": {"type": "sleeper", "name": "shell2"}},
                {"id": "mig2", "c_us": 10_000, "t_us": 50_000,
                 "role": "migration", "highest_priority": True},
                {"id": "comms2", "c_us": 10_000, "t_us": 100_000,
                 "task": {"type": "pingpong_recv", "name": "comms2",
                          "channel": "main", "wait": "busy"}},
                {"id": "logger2", "c_us": 20_000, "t_us": 100_000,
                 "task": {"type": "logger", "name": "logger2"}},
            ],
        },
    ],
    "channels": [
        {"id": "main", "a": "sb1", "b": "sb2", "n_bytes": 2048, "m_bytes": 2048,
         "delta_s": "1/8", "delta_d": "1/8", "k_us": 0,
         "poll_cost_us": 10, "poll_interval_us": 500},
    ],
    "migrations": [
        {"at_s": 5, "space": "canny_as", "from": "sb1", "to": "sb2",
         "mode": "thread", "pde_extra_delay_us": 0,
         "delay_after_depletion_us": 200},
    ],
    "run_until_s": 12,
    "sample_period_s": 1,
}


def builtin_scenario(name: str) -> dict:
    """Named built-in scenarios (currently the two-sandbox migration setup)."""
    if name in ("table1", "table1.json"):
        return json.loads(json.dumps(TABLE1))
    raise ParseError(f"unknown builtin scenario {name!r}")
