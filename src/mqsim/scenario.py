"""Scenario files: a JSON description of sandboxes, VCPUs, workloads,
channels, and migration triggers, validated and instantiated into a ready
simulator.

Schema (version 1) in brief::

    {
      "schema": 1,
      "cost_model": {"rdtsc_cost": 1, ...},            # optional, defaults
      "sandboxes": [
        {"id": "sb1", "clock": {"offset_us": 0, "drift_ppm": 0},
         "admission": "ll|exact|cap",
         "vcpus": [
            {"id": "v", "c_us": 20000, "t_us": 100000,
             "kind": "main|io", "highest_priority": false,
             "role": "migration" | null,
             "task": {"type": "busy|sleeper|logger|pingpong_send|pingpong_recv|io_cycle", ...},
             "address_space": {"id": "as", "total_pages": 370, ...}}]}],
      "channels": [{"id": "main", "a": "sb1", "b": "sb2", "n_bytes": 2048,
                    "m_bytes": 2048, "delta_s": "1/8", "delta_d": "1/8",
                    "k_us": 0, "poll_cost_us": 10, "poll_interval_us": 500}],
      "migrations": [{"at_s": 5, "space": "canny_as", "from": "sb1",
                      "to": "sb2", "mode": "thread",
                      "pde_extra_delay_us": 0,
                      "delay_after_depletion_us": 200}],
      "run_until_s": 12,
      "sample_period_s": 1
    }

Task programs reference channels by id; each channel must be used by exactly
one task per side.  The ping-pong tasks take ``"channel"`` and
``"wait": "busy"|"sleep"`` (busy-poll or sleep-poll for the message, default
busy) and ``"initial_sleep_us"``; the sender also takes ``"busy_wait_us"``
(compute before each send), ``"pace_us"`` (align sends to multiples of it
in local time) and ``"exchanges"`` (stop after that many; default never).
Every sandbox's VCPU set must pass its own admission test at load time.  An
unknown ``admission``, ``kind``, ``wait`` or migration ``mode`` value, an
unknown ``cost_model`` key or a cost the ``CostModel`` refuses, a second
channel between the same two sandboxes, a channel work (``n_bytes * delta_s``
or ``m_bytes * delta_d``, converted at load) that is malformed, negative or
not a whole number of ticks, a migration to its own sandbox or of a space
its ``from`` sandbox lacks, and a time that is not a number of seconds
(``run_until_s`` and ``sample_period_s`` of at least one tick, ``at_s`` >= 0)
are each a ``ValidationError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from mqsim import workloads
from mqsim.core import CostModel, Simulator
from mqsim.clock import SandboxClock
from mqsim.errors import (DestinationBusy, NotEligible, ParseError,
                          ValidationError)
from mqsim.ipc import ExchangeProfile, establish_channel
from mqsim.migration import MIGRATION_MODES, AddressSpace, MigrationEngine
from mqsim.sched import ADMISSION_MODES, VCPU_KINDS, Sandbox, admit


@dataclass
class Scenario:
    """A validated scenario plus the warnings collected while filling defaults."""
    raw: dict
    warnings: list = field(default_factory=list)

    @property
    def tick_ns(self) -> int:
        return self.raw.get("tick_ns", 1000)

    @property
    def ticks_per_second(self) -> int:
        return 1_000_000_000 // self.tick_ns

    @property
    def run_until_us(self) -> int:
        return self.ticks_of(self.raw, "run_until_s", 10)

    @property
    def sample_period_us(self) -> int:
        return self.ticks_of(self.raw, "sample_period_s", 1)

    def ticks_of(self, entry: dict, key: str, default, least: int = 1) -> int:
        """``entry[key]`` seconds as ticks: an int or a float (not bool),
        not negative, giving at least ``least`` ticks."""
        s = entry.get(key, default)
        if (type(s) not in (int, float) or not 0 <= s < float("inf")
                or int(s * self.ticks_per_second) < least):
            raise ValidationError(f"{key}: need seconds giving at least {least} "
                                  f"tick(s), got {s!r}")
        return int(s * self.ticks_per_second)


def load_scenario(path_or_dict) -> Scenario:
    """Parse and validate a scenario file (or an already-decoded dict)."""
    if isinstance(path_or_dict, dict):
        raw = path_or_dict
    else:
        try:
            with open(path_or_dict) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read scenario: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"scenario is not valid JSON: line {exc.lineno}, "
                             f"{exc.msg}") from exc
    sc = Scenario(raw)
    _validate(sc)
    return sc


def _validate(sc: Scenario):
    raw = sc.raw
    if raw.get("schema") != 1:
        raise ValidationError("schema: expected 1")
    if not (0 < sc.tick_ns <= 1_000_000_000):
        raise ValidationError("tick_ns: must be in 1..1e9")
    sc.run_until_us, sc.sample_period_us  # each raises if malformed
    if "cost_model" not in raw:
        sc.warnings.append("cost_model missing: defaults applied")
    try:
        CostModel(**raw.get("cost_model", {}))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"cost_model: {exc}") from exc
    sandboxes = raw.get("sandboxes")
    if not sandboxes:
        raise ValidationError("sandboxes: at least one required")
    ids = set()
    task_home = {}
    spaces = {}
    for sb in sandboxes:
        sid = sb.get("id")
        if not sid or sid in ids:
            raise ValidationError(f"sandboxes: missing or duplicate id {sid!r}")
        ids.add(sid)
        mode = sb.get("admission", "ll")
        if mode not in ADMISSION_MODES:
            raise ValidationError(f"sandbox {sid}: admission must be one of "
                                  f"{ADMISSION_MODES}, got {mode!r}")
        accepted = []
        for v in sb.get("vcpus", []):
            c, t = v.get("c_us"), v.get("t_us")
            if c is None or t is None or not (0 < c <= t):
                raise ValidationError(
                    f"vcpu {v.get('id')!r} in {sid}: need 0 < c_us <= t_us")
            kind = v.get("kind", "main")
            if kind not in VCPU_KINDS:
                raise ValidationError(f"vcpu {v.get('id')!r} in {sid}: kind must "
                                      f"be one of {VCPU_KINDS}, got {kind!r}")
            if kind == "main":
                verdict = admit(accepted, c, t, mode)
                if not verdict.accepted:
                    raise ValidationError(
                        f"sandbox {sid}: VCPU set fails {mode} admission at "
                        f"{v.get('id')!r} (util {float(verdict.utilization_after):.3f})")
                accepted.append((c, t))
            task = v.get("task")
            if task:
                wait = task.get("wait", "busy")
                if wait not in workloads.WAIT_MODES:
                    raise ValidationError(f"task of vcpu {v.get('id')!r} in {sid}: "
                                          f"wait must be one of "
                                          f"{workloads.WAIT_MODES}, got {wait!r}")
                name = task.get("name", v.get("id"))
                if name in task_home:
                    raise ValidationError(f"duplicate task name {name!r}")
                task_home[name] = sid
            space = v.get("address_space")
            if space:
                spaces[space["id"]] = sid
    pairs = {}
    for ch in raw.get("channels", []):
        for side in ("a", "b"):
            if ch.get(side) not in ids:
                raise ValidationError(
                    f"channel {ch.get('id')!r}: side {side} names unknown sandbox")
        pair = frozenset((ch["a"], ch["b"]))
        if pair in pairs:
            raise ValidationError(f"channels {pairs[pair]!r} and {ch.get('id')!r} "
                                  f"join the same sandbox pair")
        pairs[pair] = ch.get("id")
        _exchange_profile(ch)
    for mig in raw.get("migrations", []):
        space, src = mig.get("space"), mig.get("from")
        if space not in spaces or spaces[space] != src:
            raise ValidationError(f"migration: no address space {space!r} in {src!r}")
        if mig.get("to") not in ids or mig["to"] == src:
            raise ValidationError(f"migration: 'to' must name another sandbox than "
                                  f"{src!r}, got {mig.get('to')!r}")
        if (mode := mig.get("mode", "thread")) not in MIGRATION_MODES:
            raise ValidationError(f"migration: mode {mode!r} is not one of "
                                  f"{MIGRATION_MODES}")
        sc.ticks_of(mig, "at_s", 5, least=0)


def _exchange_profile(ch: dict) -> ExchangeProfile:
    """A channel's profile: each message size times its per-byte cost is
    converted to a work, which must be a whole number of ticks."""
    try:
        works = []
        for size_key, cost_key in (("n_bytes", "delta_s"), ("m_bytes", "delta_d")):
            size, cost = ch.get(size_key, 2048), ch.get(cost_key, "1/8")
            if type(size) is not int or type(cost) is bool:
                raise ValueError(f"{size_key} must be an int and {cost_key} a "
                                 f"number, got {size!r} and {cost!r}")
            cost = Fraction(cost)
            if size < 0 or cost < 0 or (size * cost).denominator != 1:
                raise ValueError(f"{size_key} * {cost_key} = {size} * {cost} is "
                                 f"not a whole, non-negative number of ticks")
            works.append(int(size * cost))
        return ExchangeProfile(*works, k=ch.get("k_us", 0),
                               poll_cost=ch.get("poll_cost_us", 10),
                               poll_interval=ch.get("poll_interval_us", 500))
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ValidationError(f"channel {ch.get('id')!r}: {exc}") from exc


@dataclass
class BuiltScenario:
    sim: Simulator
    engine: MigrationEngine
    scenario: Scenario
    tasks: dict = field(default_factory=dict)
    vcpus: dict = field(default_factory=dict)
    channels: dict = field(default_factory=dict)
    triggers: list = field(default_factory=list)


def build(sc: Scenario) -> BuiltScenario:
    """Instantiate a validated scenario into a simulator ready to run."""
    raw = sc.raw
    cost = CostModel(**raw.get("cost_model", {}))
    sim = Simulator(cost)
    engine = MigrationEngine(sim)
    out = BuiltScenario(sim, engine, sc)

    for sb_raw in raw["sandboxes"]:
        clock_raw = sb_raw.get("clock", {})
        clock = SandboxClock(clock_raw.get("offset_us", 0),
                             clock_raw.get("drift_ppm", 0))
        sb = Sandbox(sim, sb_raw["id"], clock, sb_raw.get("admission", "ll"))
        for v_raw in sb_raw.get("vcpus", []):
            v = sb.add_vcpu(v_raw["id"], v_raw["c_us"], v_raw["t_us"],
                            v_raw.get("kind", "main"),
                            v_raw.get("highest_priority",
                                      v_raw.get("role") == "migration"))
            out.vcpus[v.id] = v
            if v_raw.get("role") == "migration":
                engine.create_migration_thread(sb, v)

    for ch_raw in raw.get("channels", []):
        ch = establish_channel(sim, ch_raw["a"], ch_raw["b"],
                               _exchange_profile(ch_raw))
        out.channels[ch_raw.get("id", ch.id)] = ch

    endpoint = {}
    for sb_raw in raw["sandboxes"]:
        sb = sim.sandbox(sb_raw["id"])
        for v_raw in sb_raw.get("vcpus", []):
            task_raw = v_raw.get("task")
            space_raw = v_raw.get("address_space")
            task = None
            if task_raw:
                name = task_raw.get("name", v_raw["id"])
                task = sb.add_task(name, out.vcpus[v_raw["id"]],
                                   program=_program(task_raw, out))
                out.tasks[name] = task
                if task_raw["type"] in ("pingpong_send", "pingpong_recv"):
                    side = "a" if task_raw["type"] == "pingpong_send" else "b"
                    endpoint.setdefault(task_raw["channel"], {})[side] = task
            if space_raw:
                controls = space_raw.get("task_controls")
                if controls is None:
                    controls = [task.id] if task else []
                sb.spaces[space_raw["id"]] = AddressSpace(
                    space_raw["id"],
                    total_pages=space_raw.get("total_pages", 0),
                    pde_count=space_raw.get("pde_count", 1024),
                    pages_per_pde=space_raw.get("pages_per_pde", 1024),
                    task_controls=controls,
                    tss_limit=space_raw.get("tss_limit", 8))

    for cid, ends in endpoint.items():
        if set(ends) != {"a", "b"}:
            raise ValidationError(f"channel {cid!r}: needs one sender and one receiver")
        out.channels[cid].bind(ends["a"], ends["b"])

    for mig_raw in raw.get("migrations", []):
        out.triggers.append(MigrationTrigger(out, mig_raw))

    for sb in sim.sandboxes.values():
        sb.touch()
    return out


def _program(task_raw: dict, out: BuiltScenario):
    kind = task_raw["type"]
    if kind == "busy":
        return workloads.busy_loop(task_raw.get("iteration_cost_us", 10_000))
    if kind == "sleeper":
        return workloads.sleeper()
    if kind == "logger":
        return workloads.periodic_logger(task_raw.get("period_us", 1_000_000),
                                         task_raw.get("work_us", 500))
    if kind == "io_cycle":
        return workloads.io_cycle(task_raw.get("compute_us", 1000),
                                  task_raw.get("io_latency_us", 5000),
                                  task_raw.get("io_work_us", 100))
    if kind == "pingpong_send":
        ch = out.channels[task_raw["channel"]]
        return workloads.pingpong_sender(
            ch, exchanges=task_raw.get("exchanges"),
            busy_wait=task_raw.get("busy_wait_us", 0),
            initial_sleep=task_raw.get("initial_sleep_us", 0),
            pace=task_raw.get("pace_us"),
            wait=task_raw.get("wait", "busy"))
    if kind == "pingpong_recv":
        ch = out.channels[task_raw["channel"]]
        return workloads.pingpong_receiver(
            ch, initial_sleep=task_raw.get("initial_sleep_us", 0),
            wait=task_raw.get("wait", "busy"))
    raise ValidationError(f"unknown task type {kind!r}")


class MigrationTrigger:
    """Arms a migration at a given time.  The request fires a configurable
    delay after the target VCPU's next budget-depletion transition, so the
    relative next-event time E_s is reproducible (period - budget - delay
    when the budget is consumed in one chunk)."""

    CHECK_STEP = 100

    def __init__(self, built: BuiltScenario, raw: dict):
        self.built = built
        self.raw = raw
        self.job = None
        self.seen_eligible = False
        at = built.scenario.ticks_of(raw, "at_s", 5, least=0)
        built.sim.post_event(at, "mig-trigger", raw["from"], None,
                             lambda ev: self._check())

    def _vcpu(self):
        src = self.built.sim.sandbox(self.raw["from"])
        space = src.spaces.get(self.raw["space"])
        if space is None:  # already migrated
            return None
        return src.tasks[space.task_controls[0]].vcpu

    def _check(self):
        sim = self.built.sim
        vcpu = self._vcpu()
        if vcpu is None:
            return
        if vcpu.eligible():
            self.seen_eligible = True
        elif self.seen_eligible:
            delay = self.raw.get("delay_after_depletion_us", 200)
            sim.post_event(sim.now + delay, "mig-trigger", self.raw["from"],
                           None, lambda ev: self._fire())
            return
        sim.post_event(sim.now + self.CHECK_STEP, "mig-trigger",
                       self.raw["from"], None, lambda ev: self._check())

    def _fire(self):
        try:
            self.job = self.built.engine.request_migration(
                self.raw["from"], self.raw["to"], self.raw["space"],
                mode=self.raw.get("mode", "thread"),
                pde_extra_delay=self.raw.get("pde_extra_delay_us", 0))
        except (NotEligible, DestinationBusy):
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
