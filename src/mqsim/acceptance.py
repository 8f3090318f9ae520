"""The acceptance suite: ten pass/fail criteria over the analytic engine and
the simulator, shared by ``mqsim verify`` and the test suite.

The criteria of one ``verify`` invocation share its scenario runs through
a ``Runs`` memo, so each distinct run is simulated once; criterion 9 scans
its own explicit list of runs.  Every criterion is evaluated against its
stated tolerance and reports its counterexamples.  Criteria 3 and 4 check
the sound segment-wise round-trip bound (``rtt_bound``): the oracle against
its ``completion`` total, the simulator against its ``observed`` total.
A failure names the segment (request, response or observation) that
overshot at the worst point, and both report how often the paper variant's
W' is exceeded.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from mqsim.bounds import (CommBoundInput, brute_force_worst_rtt,
                          comm_breakdown, migration_bound, observation_delay,
                          rtt_bound, rtt_segments)
from mqsim.bounds.oracle import worst_point
from mqsim.experiments import (FIG12_CASES, FIG12_REQUEST_WORK, FIG12_SENDER,
                               experiment_fig12, fig12_worst_exchange, run_table1)
from mqsim.metrics import (budget_law_violations, compare_series,
                           replenishment_conserved)

RANDOM_SEED = 20260810


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


# The table1 runs whose trace rows criterion 8 reads; every other run keeps
# only its trace hash.
ROW_RUNS = (
    dict(migrate=True),
    dict(migrate=True, sb2_offset=10_000),
    dict(migrate=True, sb2_offset=-10_000),
)


class Runs:
    """Scenario runs memoised within one ``verify`` invocation."""

    def __init__(self):
        self._done: dict = {}

    def table1(self, **kwargs):
        """``experiments.run_table1(**kwargs)``, run once per argument set,
        keeping the trace rows of the ``ROW_RUNS``."""
        key = ("table1",) + tuple(sorted(kwargs.items()))
        if key not in self._done:
            trace = "rows" if kwargs in ROW_RUNS else "hash"
            self._done[key] = run_table1(**kwargs, trace=trace)
        return self._done[key]

    def fig12(self, exchanges: int, grid: int) -> dict:
        """``experiments.experiment_fig12(exchanges=, grid=)``, run once."""
        key = ("fig12", exchanges, grid)
        if key not in self._done:
            self._done[key] = experiment_fig12(exchanges=exchanges, grid=grid)
        return self._done[key]


# --- criteria ---------------------------------------------------------------

def crit_eq1_golden(runs, fast=False):
    e_s = Fraction("79.8")
    cases = [
        (Fraction("5.4"), Fraction("27/5"), True),
        (Fraction(20), Fraction(100), False),
        (Fraction("26.4"), Fraction("532/5"), False),
        (Fraction("891.4"), Fraction("22257/5"), False),
    ]
    msgs = []
    ok = True
    for delta, expect, eligible in cases:
        got = migration_bound(delta, 10, 50)
        good = got == expect and (e_s >= got) == eligible
        ok &= good
        msgs.append(f"bound({delta})={got}{'' if good else '!='+str(expect)}")
    return ok, "; ".join(msgs)


def crit_eq23_worked_example(runs, fast=False):
    inp = CommBoundInput(2, 10, 3, 15, 5, 4)
    bd = comm_breakdown(inp)
    expected = {"l_s": 1, "l_d": 2, "s": 29, "d": 28, "q": 7, "b": 2,
                "w": 48, "e": 1, "w_shifted": 49}
    wrong = {k: (getattr(bd, k), v) for k, v in expected.items()
             if getattr(bd, k) != v}
    observed = brute_force_worst_rtt(inp)
    oracle_ok = 48 <= observed <= 49
    ok = not wrong and oracle_ok
    return ok, f"analytic={'ok' if not wrong else wrong}; oracle={observed} in [48,49]: {oracle_ok}"


def _random_input(rng):
    c_s = rng.randint(1, 500)
    t_s = rng.randint(c_s, 500)
    c_d = rng.randint(1, 500)
    t_d = rng.randint(c_d, 500)
    n = rng.randint(1, 500)
    m = rng.randint(0, 500)
    return CommBoundInput(c_s, t_s, c_d, t_d, n, m)


def _overshoot(actual: dict, model: dict) -> str:
    """Name the first segment in which ``actual`` exceeds the model."""
    for seg in ("request", "response", "observation"):
        if seg in model and actual[seg] > model[seg]:
            return f"{seg} overshot ({actual[seg]} > {model[seg]})"
    return "no single segment above the model"


def crit_bound_soundness(runs, fast=False):
    rng = random.Random(RANDOM_SEED)
    trials = 100 if fast else 1000
    violations = []
    over_paper = 0
    for _ in range(trials):
        inp = _random_input(rng)
        bound = rtt_bound(inp).completion
        got = brute_force_worst_rtt(inp)
        over_paper += got > comm_breakdown(inp).w_shifted
        if got > bound:
            violations.append((inp, int(got), int(bound)))
    ok = not violations
    detail = (f"{trials} inputs, {len(violations)} above the sound completion "
              f"bound; paper W' exceeded on {over_paper}/{trials}")
    if violations:
        inp, got, bound = violations[0]
        params = tuple(int(v) for v in (inp.c_s, inp.t_s, inp.c_d, inp.t_d,
                                        inp.request_work, inp.response_work))
        point = worst_point(inp)
        model = rtt_segments(inp, point["sigma"])
        detail += (f"; first (C_s,T_s,C_d,T_d,req,resp)={params}: oracle {got}"
                   f" > completion {bound}, "
                   + _overshoot(point, {"request": model.request,
                                        "response": model.response}))
    return ok, detail


def _fig12_overshoot(case: str, ex: dict) -> str:
    """Segment of the simulator's worst exchange ``ex`` (see
    ``exchange_segments``) that the sound bound does not cover, against the
    model for that exchange's own send offset and completion instant."""
    c_s, t_s = FIG12_SENDER
    cfg = FIG12_CASES[case]
    inp = CommBoundInput(c_s, t_s, *cfg["receiver"], FIG12_REQUEST_WORK,
                         cfg["response_work"])
    if ex["sigma"] >= c_s:
        return f"request started at offset {ex['sigma']}, outside the sender's window"
    model = rtt_segments(inp, ex["sigma"])
    done = ex["start"] + ex["request"] + ex["response"]
    return _overshoot(ex, {"request": int(model.request),
                           "response": int(model.response),
                           "observation": observation_delay(c_s, t_s, done)})


def crit_fig12(runs, fast=False):
    grid = 10 if fast else 20
    rows = runs.fig12(2000 if fast else 10_000, grid)["rows"]
    sound = all(r["within_bound"] for r in rows)
    tight = all(r["tight"] for r in rows)
    over_paper = sum(r["observed_max"] > r["W_shifted"] for r in rows)
    detail = "; ".join(
        f"{r['case']}:{r['observed_max']}/{r['observed_bound']}={r['ratio']}"
        + ("" if r["within_bound"] else
           f" [{_fig12_overshoot(r['case'], fig12_worst_exchange(r, grid))}]")
        for r in rows)
    detail += f"; paper W' exceeded on {over_paper}/{len(rows)} cases"
    return sound and tight, detail


def crit_fig9_containment(runs, fast=False):
    ctrl, mig = runs.table1(migrate=False), runs.table1(migrate=True)
    bad = []
    for name in ("canny_fps_proxy", "comm_throughput.comms1",
                 "comm_throughput.comms2"):
        bad += [(name,) + d for d in
                compare_series(ctrl.series(name), mig.series(name), tol=1)]
    job = mig.summary["migration"]
    ok = not bad and job["criterion_ok"] and job["state"] == "completed"
    detail = f"criterion_ok={job['criterion_ok']}, samples off by >1: {bad[:4]}"
    return ok, detail


def crit_fig10(runs, fast=False):
    ctrl = runs.table1(migrate=False)
    run = runs.table1(migrate=True, pde_extra=800)
    job = run.summary["migration"]
    actual_ok = 819_200 <= job["delta_s_actual_us"] <= 900_000
    canny = run.series("canny_fps_proxy").values()
    ctrl_canny = ctrl.series("canny_fps_proxy").values()
    dropped = min(canny[5:10]) <= min(ctrl_canny[5:10]) - 10
    misses = {k: v for k, v in run.summary["deadline_misses"].items()
              if v and not k.startswith("cannyv")}
    util_peak = max(run.series("mig_thread_util_permille.sb2").values())
    util_ok = 850 <= util_peak <= 950
    ok = actual_ok and dropped and not misses and util_ok and not job["criterion_ok"]
    detail = (f"delta_actual={job['delta_s_actual_us']}us, rate_drop={dropped}, "
              f"other_misses={misses}, util_peak={util_peak / 10:.1f}%")
    return ok, detail


def crit_fig11(runs, fast=False):
    ctrl = runs.table1(migrate=False)
    run = runs.table1(migrate=True, mode="ipi-handler", pde_extra=800)
    misses = {k: v for k, v in run.summary["deadline_misses"].items()
              if v and not k.startswith("cannyv")}
    mig_second = run.summary["migration"]["E_s_us"]  # migration starts in second 5
    comm = run.series("comm_throughput.comms2").values()
    ctrl_comm = ctrl.series("comm_throughput.comms2").values()
    comm_drop = comm[5] < ctrl_comm[5] - 50
    ok = bool(misses) and comm_drop
    return ok, f"misses={misses}, comm second-5 {ctrl_comm[5]}->{comm[5]} (E_s={mig_second})"


def crit_clock_skew(runs, fast=False):
    """The adjusted events (those pending at migration time, which the skew
    adjustment rewrites) must fire at the same true time as in the zero-skew
    run, within 2*rdtsc + ipi."""
    base = runs.table1(migrate=True)
    tol = 2 * base.sim.cost.rdtsc_cost + base.sim.cost.ipi_cost
    worst = 0
    details = []
    for kwargs in ROW_RUNS[1:]:
        skew = runs.table1(**kwargs)
        t_base = _adjusted_event_firings(base)
        t_skew = _adjusted_event_firings(skew)
        n = min(len(t_base), len(t_skew))
        if n == 0:
            return False, "no adjusted events observed after migration"
        diff = max(abs(a - b) for a, b in zip(t_base[:n], t_skew[:n]))
        worst = max(worst, diff)
        details.append(f"offset {kwargs['sb2_offset']}: max diff {diff}us over {n} events")
    return worst <= tol, f"tolerance {tol}us; " + "; ".join(details)


def _adjusted_event_firings(run):
    """True-time firings of the replenishments/wakeups that were pending when
    the VCPU migrated (the events the adjustment applies to)."""
    job = run.built.triggers[0].job
    count = len(job.adjusted_events)
    entities = {job.vcpu.id} | {t.id for t in job.vcpu.tasks}
    out = [r.t for r in run.sim.trace.rows
           if r.kind in ("replenish", "wakeup") and r.entity in entities
           and r.sandbox == job.destination and r.t >= job.completed_at]
    return out[:count]


# The table1 runs criterion 9 scans: those of criteria 5-8, and the
# thread-mode slow copy with sb2's clock 12.5 ms ahead, in which migration
# chunks end on the tick of another VCPU's replenishment.
SPORADIC_LAW_RUNS = (
    dict(migrate=False),
    dict(migrate=True),
    dict(migrate=True, pde_extra=800),
    dict(migrate=True, mode="ipi-handler", pde_extra=800),
    dict(migrate=True, sb2_offset=10_000),
    dict(migrate=True, sb2_offset=-10_000),
    dict(migrate=True, pde_extra=800, sb2_offset=12_500),
)


def crit_sporadic_law(runs, fast=False):
    problems = []
    scanned = 0
    for kwargs in SPORADIC_LAW_RUNS:
        run = runs.table1(**kwargs)
        label = ",".join(f"{k}={v}" for k, v in kwargs.items())
        for sb in run.sim.sandboxes.values():
            for v in sb.vcpus.values():
                scanned += 1
                windows = budget_law_violations(v)
                if windows:
                    problems.append(f"{label} {v.id}: {len(windows)} windows, "
                                    f"max {max(got for _, got in windows)} > {v.capacity}")
                if not replenishment_conserved(v):
                    problems.append(f"{label} {v.id}: replenishment not conserved")
    return not problems, (f"{len(SPORADIC_LAW_RUNS)} runs, {scanned} VCPU traces "
                          f"scanned; problems: {problems[:4]}")


def crit_determinism(runs, fast=False):
    first = runs.table1(migrate=True)
    second = run_table1(migrate=True)
    h1, h2 = first.sim.trace.hash(), second.sim.trace.hash()
    return h1 == h2, f"hash {h1:016x} vs rerun {h2:016x}"


CRITERIA = [
    ("1-migration-bound-golden-values", crit_eq1_golden),
    ("2-roundtrip-worked-example", crit_eq23_worked_example),
    ("3-bound-soundness-randomized", crit_bound_soundness),
    ("4-roundtrip-bound-five-cases", crit_fig12),
    ("5-containment-under-criterion", crit_fig9_containment),
    ("6-violated-criterion-thread-mode", crit_fig10),
    ("7-ipi-handler-mode", crit_fig11),
    ("8-clock-skew-compensation", crit_clock_skew),
    ("9-sporadic-server-law", crit_sporadic_law),
    ("10-determinism", crit_determinism),
]


def run_criterion(name: str, runs: Runs, fast: bool = False) -> CriterionResult:
    """Evaluate one criterion; the criteria of one invocation share ``runs``."""
    fn = dict(CRITERIA)[name]
    t0 = time.time()
    passed, detail = fn(runs, fast=fast)
    return CriterionResult(name, passed, detail, time.time() - t0)

