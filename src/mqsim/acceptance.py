"""The acceptance suite: ten pass/fail criteria over the analytic engine and
the simulator, shared by ``mqsim verify`` and the test suite.

Expensive scenario runs are cached and reused across criteria.  Every
criterion is evaluated against its stated tolerance and reports its
counterexamples.  Criteria 3 and 4 check the sound segment-wise round-trip
bound (``rtt_bound``): the oracle against its ``completion`` total, the
simulator against its ``observed`` total.  A failure names the segment
(request, response or observation) that overshot at the worst point, and
both report how often the paper variant's W' is exceeded.
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
from mqsim.metrics import (budget_law_violations, compare_series,
                           replenishment_conserved)

RANDOM_SEED = 20260810


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


_cache: dict = {}


def _run(key, **kwargs):
    if key not in _cache:
        from mqsim.experiments import run_table1
        _cache[key] = run_table1(**kwargs)
    return _cache[key]


def _fig9_pair():
    return (_run("fig9-ctrl", migrate=False),
            _run("fig9-mig", migrate=True))


# --- criteria ---------------------------------------------------------------

def crit_eq1_golden(fast=False):
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


def crit_eq23_worked_example(fast=False):
    inp = CommBoundInput.from_work(2, 10, 3, 15, 5, 4)
    bd = comm_breakdown(inp)
    expected = {"l_s": 1, "l_d": 2, "s": 29, "d": 28, "q": 7, "b": 2,
                "w": 48, "e": 1, "w_shifted": 49}
    wrong = {k: (getattr(bd, k), v) for k, v in expected.items()
             if getattr(bd, k) != v}
    observed = brute_force_worst_rtt(inp, resolution=1)
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
    return CommBoundInput.from_work(c_s, t_s, c_d, t_d, n, m)


def _overshoot(actual: dict, model: dict) -> str:
    """Name the first segment in which ``actual`` exceeds the model."""
    for seg in ("request", "response", "observation"):
        if seg in model and actual[seg] > model[seg]:
            return f"{seg} overshot ({actual[seg]} > {model[seg]})"
    return "no single segment above the model"


def crit_bound_soundness(fast=False):
    rng = random.Random(RANDOM_SEED)
    trials = 100 if fast else 1000
    violations = []
    over_paper = 0
    for _ in range(trials):
        inp = _random_input(rng)
        bound = rtt_bound(inp).completion
        got = brute_force_worst_rtt(inp, resolution=1)
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
    from mqsim.experiments import (FIG12_CASES, FIG12_REQUEST_WORK,
                                   FIG12_SENDER)
    c_s, t_s = FIG12_SENDER
    cfg = FIG12_CASES[case]
    inp = CommBoundInput.from_work(c_s, t_s, *cfg["receiver"],
                                   FIG12_REQUEST_WORK, cfg["response_work"])
    if ex["sigma"] >= c_s:
        return f"request started at offset {ex['sigma']}, outside the sender's window"
    model = rtt_segments(inp, ex["sigma"])
    done = ex["start"] + ex["request"] + ex["response"]
    return _overshoot(ex, {"request": int(model.request),
                           "response": int(model.response),
                           "observation": observation_delay(c_s, t_s, done)})


def crit_fig12(fast=False):
    from mqsim.experiments import experiment_fig12, fig12_worst_exchange
    grid = 10 if fast else 20
    if "fig12" not in _cache:
        _cache["fig12"] = experiment_fig12(exchanges=2000 if fast else 10_000,
                                           grid=grid)
    rows = _cache["fig12"]["rows"]
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


def crit_fig9_containment(fast=False):
    ctrl, mig = _fig9_pair()
    bad = []
    for name in ("canny_fps_proxy", "comm_throughput.comms1",
                 "comm_throughput.comms2"):
        bad += [(name,) + d for d in
                compare_series(ctrl.series(name), mig.series(name), tol=1)]
    job = mig.summary["migration"]
    ok = not bad and job["criterion_ok"] and job["state"] == "completed"
    detail = f"criterion_ok={job['criterion_ok']}, samples off by >1: {bad[:4]}"
    return ok, detail


def crit_fig10(fast=False):
    ctrl = _run("fig9-ctrl", migrate=False)
    run = _run("fig10", migrate=True, pde_extra=800)
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


def crit_fig11(fast=False):
    ctrl = _run("fig9-ctrl", migrate=False)
    run = _run("fig11", migrate=True, mode="ipi-handler", pde_extra=800)
    misses = {k: v for k, v in run.summary["deadline_misses"].items()
              if v and not k.startswith("cannyv")}
    mig_second = run.summary["migration"]["E_s_us"]  # migration starts in second 5
    comm = run.series("comm_throughput.comms2").values()
    ctrl_comm = ctrl.series("comm_throughput.comms2").values()
    comm_drop = comm[5] < ctrl_comm[5] - 50
    ok = bool(misses) and comm_drop
    return ok, f"misses={misses}, comm second-5 {ctrl_comm[5]}->{comm[5]} (E_s={mig_second})"


def crit_clock_skew(fast=False):
    """The adjusted events (those pending at migration time, which the skew
    adjustment rewrites) must fire at the same true time as in the zero-skew
    run, within 2*rdtsc + ipi."""
    base = _run("fig9-mig", migrate=True)
    tol = 2 * base.sim.cost.rdtsc_cost + base.sim.cost.ipi_cost
    worst = 0
    details = []
    for offset in (10_000, -10_000):
        skew = _run(f"skew{offset}", migrate=True, sb2_offset=offset)
        t_base = _adjusted_event_firings(base)
        t_skew = _adjusted_event_firings(skew)
        n = min(len(t_base), len(t_skew))
        if n == 0:
            return False, "no adjusted events observed after migration"
        diff = max(abs(a - b) for a, b in zip(t_base[:n], t_skew[:n]))
        worst = max(worst, diff)
        details.append(f"offset {offset}: max diff {diff}us over {n} events")
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


def crit_sporadic_law(fast=False):
    _fig9_pair()
    _run("fig10", migrate=True, pde_extra=800)
    _run("fig11", migrate=True, mode="ipi-handler", pde_extra=800)
    problems = []
    scanned = 0
    for key, run in list(_cache.items()):
        if not hasattr(run, "sim"):
            continue
        for sb in run.sim.sandboxes.values():
            for v in sb.vcpus.values():
                scanned += 1
                if budget_law_violations(v):
                    problems.append((key, v.id, "window"))
                if not replenishment_conserved(v):
                    problems.append((key, v.id, "conservation"))
    return not problems, f"{scanned} VCPU traces scanned; problems: {problems[:4]}"


def crit_determinism(fast=False):
    from mqsim.experiments import run_table1
    first = _run("fig9-mig", migrate=True)
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


def run_criterion(name: str, fast: bool = False) -> CriterionResult:
    fn = dict(CRITERIA)[name]
    t0 = time.time()
    passed, detail = fn(fast=fast)
    return CriterionResult(name, passed, detail, time.time() - t0)

