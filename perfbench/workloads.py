"""The four benchmark workloads: seeded input generators and the calls that
run one job of each through mqsim's public functions, with output checks.

A job is the unit the input stream is made of: one scenario variant, one
sweep point, or one bound input.  An op is the unit that is timed: one
100 ms simulation step for ``sim-table1`` and the whole job elsewhere.

Every call into mqsim goes through a module attribute (``scenario.build``,
``oracle.brute_force_worst_rtt``, ...) so that the traced run, which swaps
those attributes for span-recording wrappers, times the same calls.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from mqsim import experiments, metrics, scenario
from mqsim.bounds import formulas, oracle

STEP_US = 100_000  # one sim-table1 op: 100 ms of simulated time


@dataclass
class JobResult:
    """What one job did: op latencies, host time spent inside mqsim calls,
    the value that goes into the result digest, and check outcomes."""
    op_ns: list = field(default_factory=list)
    busy_ns: int = 0
    digest_item: object = None
    failed: bool = False
    problems: list = field(default_factory=list)
    gate: dict = field(default_factory=dict)
    sim_us: int = 0


def _timed(res: JobResult, fn, *args, **kwargs):
    """Run one mqsim call, charging its host time to the job."""
    t0 = time.perf_counter_ns()
    out = fn(*args, **kwargs)
    res.busy_ns += time.perf_counter_ns() - t0
    return out


# --- sim-table1 ----------------------------------------------------------------

TABLE1_STRATA = [("thread", 0), ("thread", 800),
                 ("ipi-handler", 0), ("ipi-handler", 800)]


def table1_jobs(rng):
    """Seeded variants of the built-in table1 scenario.  Each block of four
    holds every (mode, pde_extra_delay_us) pair once, in seeded order, so
    the mix of slow and fast variants is the same in every run."""
    while True:
        block = list(TABLE1_STRATA)
        rng.shuffle(block)
        for mode, pde in block:
            yield {"mode": mode, "pde_extra_delay_us": pde,
                   "offset_us": rng.randint(-20_000, 20_000),
                   "drift_ppm": rng.randint(-100, 100),
                   "at_s": rng.randint(3_000, 10_000) / 1000}


def table1_raw(job: dict) -> dict:
    raw = scenario.builtin_scenario("table1")
    sb2 = raw["sandboxes"][1]
    sb2["clock"]["offset_us"] = job["offset_us"]
    sb2["clock"]["drift_ppm"] = job["drift_ppm"]
    mig = raw["migrations"][0]
    mig["at_s"] = job["at_s"]
    mig["mode"] = job["mode"]
    mig["pde_extra_delay_us"] = job["pde_extra_delay_us"]
    return raw


def table1_ops(job: dict) -> int:
    return scenario.load_scenario(table1_raw(job)).run_until_us // STEP_US


def run_table1(job: dict) -> JobResult:
    """Load, build and run one variant the way ``mqsim run`` does, in 100 ms
    steps, then close the run and hash its trace."""
    res = JobResult()
    raw = table1_raw(job)
    sc = _timed(res, scenario.load_scenario, raw)
    built = _timed(res, scenario.build, sc)

    def sampler_setup():
        sampler = metrics.Sampler(built.sim, sc.sample_period_us)
        for name, task in built.tasks.items():
            sampler.add_counter(f"counters.{name}",
                                lambda t=task: sum(t.counters.values()))
        sampler.start()
    _timed(res, sampler_setup)

    sim = built.sim
    until = sc.run_until_us
    for t_next in range(STEP_US, until + 1, STEP_US):
        t0 = time.perf_counter_ns()
        sim.run_until(t_next)
        dt = time.perf_counter_ns() - t0
        res.op_ns.append(dt)
        res.busy_ns += dt
    _timed(res, metrics.finish_run, sim)
    trace_hash = _timed(res, sim.trace.hash)
    res.sim_us = until
    res.digest_item = f"{trace_hash:016x}"
    res.problems = conservation_problems(built)
    res.failed = bool(res.problems)
    broken = budget_law_problems(built)
    res.problems += broken
    res.gate = {"budget_law_broken": len(broken)}
    return res


def budget_allowance(vcpu, drifts) -> int:
    """Execution a true-time window of one period may hold beyond the
    budget on a drifting clock: replenishments are timed in local time, so
    a true window of T spans T * (1 + drift) local ticks."""
    return math.ceil(vcpu.period * max(abs(d) for d in drifts) / 1_000_000)


def conservation_problems(built) -> list:
    """After ``finish_run`` every VCPU's held plus pending budget must equal
    its capacity."""
    return [f"{v.id}: replenishment not conserved"
            for sb in built.sim.sandboxes.values() for v in sb.vcpus.values()
            if not metrics.replenishment_conserved(v)]


def budget_law_problems(built) -> list:
    """The sliding-window budget law on every VCPU, with the drift allowance
    of every sandbox the VCPU ran on.  At the seed commit it breaks when a
    migration chunk starts on too little budget (seen with a clock offset in
    thread mode with pde_extra_delay_us=800): a known defect, counted and
    reported apart from failed ops, like the criterion 3 and 4 gate counts."""
    moved = {t.job.vcpu.id: t.job.source for t in built.triggers
             if t.job is not None and t.job.state == "completed"}
    out = []
    for sb in built.sim.sandboxes.values():
        for v in sb.vcpus.values():
            drifts = [sb.clock.drift_ppm]
            if v.id in moved:
                drifts.append(built.sim.sandbox(moved[v.id]).clock.drift_ppm)
            bad = metrics.budget_law_violations(v, budget_allowance(v, drifts))
            if bad:
                out.append(f"{v.id}: budget law broken at {bad[0]}")
    return out


# --- rtt-sweep -----------------------------------------------------------------

def rtt_jobs(rng):
    """Seeded (busy_wait, receiver_phase, exchanges) points; each block of
    five visits every fig12 configuration once, in seeded order."""
    names = sorted(experiments.FIG12_CASES)
    c_s, _ = experiments.FIG12_SENDER
    while True:
        block = list(names)
        rng.shuffle(block)
        for name in block:
            _, t_d = experiments.FIG12_CASES[name]["receiver"]
            yield {"case": name, "busy_wait": rng.randrange(0, c_s),
                   "receiver_phase": rng.randrange(0, t_d),
                   "exchanges": rng.randint(1, 25)}


def fig12_w_shifted() -> dict:
    """W' of each fig12 configuration, computed once outside the timing."""
    c_s, t_s = experiments.FIG12_SENDER
    out = {}
    for name, cfg in experiments.FIG12_CASES.items():
        c_d, t_d = cfg["receiver"]
        inp = formulas.CommBoundInput.from_work(
            c_s, t_s, c_d, t_d, experiments.FIG12_REQUEST_WORK,
            cfg["response_work"])
        out[name] = formulas.comm_breakdown(inp).w_shifted
    return out


def run_rtt(job: dict, w_shifted: dict) -> JobResult:
    """One fig12 sweep point through ``pingpong_case_max_rtt``."""
    res = JobResult()
    c_s, t_s = experiments.FIG12_SENDER
    cfg = experiments.FIG12_CASES[job["case"]]
    c_d, t_d = cfg["receiver"]
    req, resp = experiments.FIG12_REQUEST_WORK, cfg["response_work"]
    samples = []
    t0 = time.perf_counter_ns()
    worst = experiments.pingpong_case_max_rtt(
        c_s, t_s, c_d, t_d, req, resp, job["busy_wait"],
        job["receiver_phase"], job["exchanges"], keep_samples=samples)
    dt = time.perf_counter_ns() - t0
    res.op_ns.append(dt)
    res.busy_ns = dt
    res.digest_item = worst
    rtts = [rtt for (_, _, rtt) in samples]
    if len(rtts) < job["exchanges"]:
        res.problems.append(f"{len(rtts)} of {job['exchanges']} exchanges done")
    short = [r for r in rtts if r < req + resp]
    if short:
        res.problems.append(f"rtt {short[0]} < request + response {req + resp}")
    if rtts and worst != max(rtts):
        res.problems.append(f"max rtt {worst} != max of samples {max(rtts)}")
    res.failed = bool(res.problems)
    res.gate = {"rtt_over_w_shifted": int(worst > w_shifted[job["case"]])}
    return res


# --- bound-sweep and bound-tiny ---------------------------------------------------

REPEAT_SHARE = 0.05  # share of bound inputs whose oracle call is repeated


def bound_jobs(rng, limit: int):
    """CommBoundInput parameters drawn as criterion 3 draws them, each at
    most ``limit``; a seeded few are marked for a repeated oracle call."""
    while True:
        c_s = rng.randint(1, limit)
        t_s = rng.randint(c_s, limit)
        c_d = rng.randint(1, limit)
        t_d = rng.randint(c_d, limit)
        n = rng.randint(1, limit)
        m = rng.randint(0, limit)
        yield {"params": (c_s, t_s, c_d, t_d, n, m),
               "repeat": rng.random() < REPEAT_SHARE}


def run_bound(job: dict) -> JobResult:
    """The analytic chain and the resolution-1 oracle for one input."""
    res = JobResult()
    t0 = time.perf_counter_ns()
    inp = formulas.CommBoundInput.from_work(*job["params"])
    bd = formulas.comm_breakdown(inp)
    observed = oracle.brute_force_worst_rtt(inp, resolution=1)
    dt = time.perf_counter_ns() - t0
    res.op_ns.append(dt)
    res.busy_ns = dt
    res.digest_item = [str(observed), str(bd.w_shifted)]
    floor = inp.request_work + inp.response_work
    if observed < floor:
        res.problems.append(f"oracle {observed} < request + response {floor}")
    if job["repeat"]:
        again = oracle.brute_force_worst_rtt(inp, resolution=1)
        if again != observed:
            res.problems.append(f"repeated oracle call gave {again} != {observed}")
    res.failed = bool(res.problems)
    res.gate = {"oracle_over_w_shifted": int(observed > bd.w_shifted)}
    return res


# --- registry --------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """A named input stream plus the function that runs one of its jobs.

    ``prefix`` jobs open every run: their results make the result digest
    and they are the fixed work of the traced run.  ``ops_per_job`` is the
    op count a job that raises is charged with.  ``collect_garbage`` runs a
    full collection before each job, outside the timing: users run each
    scenario in a fresh process, so one variant's dead simulator must not
    be collected on the next variant's time."""
    name: str
    prefix: int
    jobs: object
    make_runner: object
    ops_per_job: object = lambda job: 1
    collect_garbage: bool = False


def _rtt_runner():
    w_shifted = fig12_w_shifted()
    return lambda job: run_rtt(job, w_shifted)


WORKLOADS = {
    "sim-table1": Workload("sim-table1", 4, table1_jobs, lambda: run_table1,
                           table1_ops, collect_garbage=True),
    "rtt-sweep": Workload("rtt-sweep", 50, rtt_jobs, _rtt_runner),
    "bound-sweep": Workload("bound-sweep", 100, lambda rng: bound_jobs(rng, 500),
                            lambda: run_bound),
    "bound-tiny": Workload("bound-tiny", 1000, lambda rng: bound_jobs(rng, 12),
                           lambda: run_bound),
}
