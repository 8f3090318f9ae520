"""Experiment harness: the canonical two-sandbox migration scenarios and the
five round-trip bound validation cases, run at simulated scale with CSV/JSON
artifacts.

Experiments:

* ``fig9``   migration with negligible copy cost: all rates stay flat,
* ``fig10``  slow copy (extra per-directory-entry delay) handled by the
             migration thread: only the migrated task's rate dips,
* ``fig11``  the same copy inside the destination's IPI handler: everything
             on that sandbox stalls,
* ``fig12``  worst observed round trip versus the sound round-trip bound
             (next to the paper's W and W') for five sender/receiver VCPU
             configurations,
* ``tables`` migration-criterion verdicts for the recorded cost points.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction

from mqsim.bounds import CommBoundInput, brute_force_worst_rtt, comm_breakdown, \
    migration_bound, rtt_bound
from mqsim.core import CostModel, Simulator
from mqsim.ipc import ExchangeProfile, establish_channel, rtt_samples_csv, run_pingpong
from mqsim.metrics import MetricSeries, Sampler, count_deadline_misses, finish_run
from mqsim.scenario import build, builtin_scenario, load_scenario
from mqsim.sched import Sandbox
from mqsim.workloads import pingpong_receiver, pingpong_sender

SECOND = 1_000_000

# sender 20/100 ms throughout; receiver per case; request cost 5 ms.  The
# response cost is 5 ms where it fits the receiver's budget and 1 ms for the
# 2/10 receiver, keeping the response within one budget as the bound's
# scenario analysis assumes.
FIG12_SENDER = (20_000, 100_000)
FIG12_REQUEST_WORK = 5_000
FIG12_CASES = {
    "case1": {"receiver": (2_000, 10_000), "response_work": 1_000},
    "case2": {"receiver": (20_000, 100_000), "response_work": 5_000},
    "case3": {"receiver": (20_000, 130_000), "response_work": 5_000},
    "case4": {"receiver": (20_000, 200_000), "response_work": 5_000},
    "case5": {"receiver": (20_000, 230_000), "response_work": 5_000},
}
FIG12_EXCHANGES = 10_000
FIG12_GRID = 20  # sweep points per axis

TABLES_ROWS = [
    # (label, E_s ms, delta_s ms, C_m ms, T_m ms)
    ("small-space", "79.8", "5.4", "10", "50"),
    ("first-violation", "79.8", "20", "10", "50"),
    ("boundary", "79.8", "26.4", "10", "50"),
    ("slow-copy", "79.8", "891.4", "10", "50"),
]


@dataclass
class RunResult:
    built: object
    sampler: Sampler
    summary: dict = field(default_factory=dict)

    @property
    def sim(self):
        return self.built.sim

    def series(self, name):
        return self.sampler.series[name]


def run_table1(migrate: bool = True, mode: str = "thread", pde_extra: int = 0,
               sb2_offset: int = 0, trace: str = "hash") -> RunResult:
    """Run the two-sandbox setup for its 12 s, optionally migrating the
    compute task at t=5 s, sampling every second.  ``trace`` is the trace
    mode; pass "rows" to read or export the rows."""
    raw = builtin_scenario("table1")
    raw["sandboxes"][1]["clock"]["offset_us"] = sb2_offset
    if migrate:
        raw["migrations"][0]["mode"] = mode
        raw["migrations"][0]["pde_extra_delay_us"] = pde_extra
    else:
        raw["migrations"] = []
    sc = load_scenario(raw)
    built = build(sc, trace)
    sampler = Sampler(built.sim, SECOND)
    sampler.add_counter("canny_fps_proxy",
                        lambda: built.tasks["canny"].counters.get("iterations", 0))
    sampler.add_counter("comm_throughput.comms1",
                        lambda: built.tasks["comms1"].counters.get("exchanges", 0))
    sampler.add_counter("comm_throughput.comms2",
                        lambda: built.tasks["comms2"].counters.get("exchanges", 0))
    sampler.add_counter("mig_thread_cycles.sb1",
                        lambda: built.vcpus["mig1"].total_consumed)
    sampler.add_counter("mig_thread_cycles.sb2",
                        lambda: built.vcpus["mig2"].total_consumed)
    sampler.start()
    built.sim.run_until(sc.run_until_us)
    finish_run(built.sim)

    res = RunResult(built, sampler)
    mig2 = built.vcpus["mig2"]
    util = [(t, v * 1000 * mig2.period // (mig2.capacity * SECOND))
            for t, v in sampler.series["mig_thread_cycles.sb2"].samples]
    sampler.series["mig_thread_util_permille.sb2"] = MetricSeries(
        "mig_thread_util_permille.sb2", util)
    job = built.triggers[0].job if built.triggers else None
    res.summary = {
        "trace_hash": f"{built.sim.trace.hash():016x}",
        "migration": job.summary() if job is not None else None,
        "deadline_misses": deadline_miss_table(built, sc.run_until_us),
    }
    return res


def deadline_miss_table(built, t_end: int) -> dict:
    """Misses per VCPU over the run (continuously-eligible periods that got
    less than a full budget)."""
    out = {}
    job = built.triggers[0].job if built.triggers else None
    migrated = job.vcpu.id if job is not None else None
    for sb in built.sim.sandboxes.values():
        for v in sb.vcpus.values():
            out[v.id] = count_deadline_misses(v, t_end)
    if migrated is not None:
        out[f"{migrated}(migrated)"] = out.pop(migrated, 0)
    return out


# --- fig9 / fig10 / fig11 ---------------------------------------------------

def experiment_fig9(out_dir: str | None = None) -> dict:
    control = run_table1(migrate=False)
    migrated = run_table1(migrate=True, trace=_export_mode(out_dir))
    artifact = {
        "experiment": "fig9",
        "control": _series_dict(control),
        "migrated": _series_dict(migrated),
        "summary": {"control": control.summary, "migrated": migrated.summary},
    }
    _write(out_dir, "fig9", artifact, migrated)
    return artifact


def _single_run(name: str, out_dir: str | None, mode: str) -> dict:
    """A slow-copy experiment: one table1 run migrating in ``mode`` with
    800 us of extra delay per page-directory entry."""
    run = run_table1(migrate=True, mode=mode, pde_extra=800,
                     trace=_export_mode(out_dir))
    artifact = {
        "experiment": name,
        "migrated": _series_dict(run),
        "summary": run.summary,
    }
    _write(out_dir, name, artifact, run)
    return artifact


def experiment_fig10(out_dir: str | None = None) -> dict:
    return _single_run("fig10", out_dir, "thread")


def experiment_fig11(out_dir: str | None = None) -> dict:
    return _single_run("fig11", out_dir, "ipi-handler")


def _export_mode(out_dir: str | None) -> str:
    """The trace mode of a run whose trace ``_write`` exports to ``out_dir``."""
    return "rows" if out_dir else "hash"


def _series_dict(res: RunResult) -> dict:
    return {name: s.samples for name, s in res.sampler.series.items()}


# --- fig12 -------------------------------------------------------------------

def pingpong_case_max_rtt(c_s, t_s, c_d, t_d, request_work, response_work,
                          busy_wait, receiver_phase, exchanges,
                          keep_samples: list = None, keep_segments: list = None) -> int:
    """One sweep point: a fresh two-sandbox exchange loop; returns the
    largest round trip observed in ``exchanges`` exchanges, run for at most
    120 simulated seconds.  ``keep_samples`` collects the round-trip
    samples, ``keep_segments`` their segments (see ``exchange_segments``).
    The point's trace keeps rows only when ``keep_segments`` is given,
    because only the segments read them, and otherwise discards them; the
    simulated events, and so the samples, are the same either way."""
    sim = Simulator(CostModel(), "rows" if keep_segments is not None else "discard")
    s = Sandbox(sim, "s")
    d = Sandbox(sim, "d")
    vs = s.add_vcpu("vs", c_s, t_s)
    vd = d.add_vcpu("vd", c_d, t_d)
    ch = establish_channel(sim, "s", "d",
                           ExchangeProfile(request_work, response_work))
    snd = s.add_task("snd", vs, program=pingpong_sender(
        ch, busy_wait=busy_wait, exchanges=exchanges))
    rcv = d.add_task("rcv", vd, program=pingpong_receiver(
        ch, initial_sleep=receiver_phase))
    ch.bind(snd, rcv)
    s.touch()
    d.touch()
    rtts = run_pingpong(sim, ch, exchanges, limit=120 * SECOND)
    if keep_samples is not None:
        keep_samples.extend(snd.rtt_samples)
    if keep_segments is not None:
        keep_segments.extend(exchange_segments(sim, snd, rcv, t_s))
    return max(rtts) if rtts else 0


def exchange_segments(sim, snd, rcv, t_s) -> list[dict]:
    """Split each recorded round trip at the request's and the response's
    ``msg_send`` rows into request, response and observation (the sender
    seeing the reply).  Assumes fresh sandboxes, where local time is true
    time and a backlogged sender's windows start at multiples of ``t_s``, so
    ``sigma`` is the send's offset into its window."""
    ends = {snd.id: [], rcv.id: []}
    for row in sim.trace.rows:
        if row.kind == "msg_send" and row.entity in ends:
            ends[row.entity].append(row.t)
    return [{"start": t0, "sigma": t0 % t_s, "request": req - t0,
             "response": resp - req, "observation": t0 + rtt - resp}
            for (_, t0, rtt), req, resp
            in zip(snd.rtt_samples, ends[snd.id], ends[rcv.id])]


FIG12_CSV_HEADER = ("case,W,W_shifted,observed_max,oracle_max,ratio,within_bound,"
                    "completion_bound,observed_bound")


def fig12_csv_lines(rows) -> list[str]:
    """``fig12.csv``: one row per configuration, the paper's W and W' first,
    ``ratio``/``within_bound`` against the sound ``observed_bound``."""
    return [FIG12_CSV_HEADER] + [
        f"{r['case']},{r['W']},{r['W_shifted']},{r['observed_max']},"
        f"{r['oracle_max']},{r['ratio']},{int(r['within_bound'])},"
        f"{r['completion_bound']},{r['observed_bound']}" for r in rows]


def _fig12_points(c_s, t_d, grid) -> list[tuple[int, int]]:
    """(busy wait, receiver phase) sweep points of one configuration."""
    b_step = max(1, c_s // grid)
    p_step = max(1, t_d // grid)
    return [(b, p) for p in range(0, t_d, p_step)
            for b in range(0, c_s, b_step)]


def fig12_worst_exchange(row: dict, grid: int = FIG12_GRID) -> dict:
    """Largest exchange at a fig12 row's worst sweep point, split by
    ``exchange_segments``; re-simulates that point with the per-point
    exchange count of the sweep that made ``row`` on ``grid``."""
    c_s, t_s = FIG12_SENDER
    cfg = FIG12_CASES[row["case"]]
    c_d, t_d = cfg["receiver"]
    per_point = row["exchanges"] // len(_fig12_points(c_s, t_d, grid))
    segments = []
    pingpong_case_max_rtt(c_s, t_s, c_d, t_d, FIG12_REQUEST_WORK,
                          cfg["response_work"], row["worst_point"]["busy_wait"],
                          row["worst_point"]["receiver_phase"], per_point,
                          keep_segments=segments)
    return max(segments, key=lambda e: e["request"] + e["response"]
               + e["observation"])


def experiment_fig12(out_dir: str | None = None,
                     exchanges: int = FIG12_EXCHANGES,
                     grid: int = FIG12_GRID) -> dict:
    """Sweep receiver sleep phases and in-budget send offsets for the five
    configurations; report the observed worst round trip against the sound
    bound's ``observed`` total, next to the paper's W and W' and the
    brute-force sweep (which ends at response completion) as
    cross-references.

    The configurations are named case1-case5, but the paper variant
    (``comm_breakdown(...).case_id``) puts them in its cases 1, 2, 4, 4 and
    4: no configuration runs the paper's case 3 or 5."""
    c_s, t_s = FIG12_SENDER
    rows = []
    for name, cfg in FIG12_CASES.items():
        c_d, t_d = cfg["receiver"]
        m_work = cfg["response_work"]
        inp = CommBoundInput(c_s, t_s, c_d, t_d, FIG12_REQUEST_WORK, m_work)
        bd = comm_breakdown(inp)
        sound = rtt_bound(inp)
        oracle = brute_force_worst_rtt(inp)

        points = _fig12_points(c_s, t_d, grid)
        per_point = -(-exchanges // len(points))
        observed = 0
        arg = (0, 0)
        for b, p in points:
            got = pingpong_case_max_rtt(c_s, t_s, c_d, t_d, FIG12_REQUEST_WORK,
                                        m_work, b, p, per_point)
            if got > observed:
                observed, arg = got, (b, p)
        bound = int(sound.observed)
        rows.append({
            "case": name, "W": int(bd.w), "W_shifted": int(bd.w_shifted),
            "completion_bound": int(sound.completion),
            "observed_bound": bound,
            "bound_segments": sound.worst_observed.as_dict(),
            "observed_max": observed,
            "oracle_max": int(oracle),
            "ratio": round(observed / bound, 4),
            "within_bound": observed <= bound,
            "tight": observed * 100 >= 85 * bound,
            "worst_point": {"busy_wait": arg[0], "receiver_phase": arg[1]},
            "exchanges": per_point * len(points),
        })
    artifact = {"experiment": "fig12", "rows": rows}
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _put(out_dir, "fig12.csv", "\n".join(fig12_csv_lines(rows)) + "\n")
        _put(out_dir, "fig12_summary.json", json.dumps(artifact, indent=2, sort_keys=True))
        # per-case round-trip samples from the worst sweep point
        for r in rows:
            c_d, t_d = FIG12_CASES[r["case"]]["receiver"]
            samples = []
            pingpong_case_max_rtt(c_s, t_s, c_d, t_d, FIG12_REQUEST_WORK,
                                  FIG12_CASES[r["case"]]["response_work"],
                                  r["worst_point"]["busy_wait"],
                                  r["worst_point"]["receiver_phase"],
                                  exchanges=50, keep_samples=samples)
            _put(out_dir, f"fig12_{r['case']}_rtt.csv",
                 rtt_samples_csv(samples))
    return artifact


# --- tables ------------------------------------------------------------------

def experiment_tables(out_dir: str | None = None) -> dict:
    """Migration-criterion verdicts for the recorded cost points (values in
    milliseconds, computed exactly)."""
    rows = []
    for label, e_s, delta, c_m, t_m in TABLES_ROWS:
        bound = migration_bound(Fraction(delta), Fraction(c_m), Fraction(t_m))
        ok = Fraction(e_s) >= bound
        rows.append({"label": label, "E_s_ms": e_s, "delta_s_ms": delta,
                     "C_m_ms": c_m, "T_m_ms": t_m,
                     "bound_ms": str(Fraction(bound)),
                     "verdict": "eligible" if ok else "violated"})
    artifact = {"experiment": "tables", "rows": rows}
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _put(out_dir, "tables.json", json.dumps(artifact, indent=2, sort_keys=True))
    return artifact


EXPERIMENTS = {
    "fig9": experiment_fig9,
    "fig10": experiment_fig10,
    "fig11": experiment_fig11,
    "fig12": experiment_fig12,
    "tables": experiment_tables,
}


def run_experiment(name: str, out_dir: str | None = None) -> dict:
    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(f"unknown experiment {name!r}; "
                         f"choose from {sorted(EXPERIMENTS)}") from None
    return fn(out_dir)


# --- artifact writing ----------------------------------------------------------

def _put(out_dir: str, name: str, text: str):
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)


def _write(out_dir: str | None, name: str, artifact: dict, run: RunResult):
    if not out_dir:
        return
    os.makedirs(out_dir, exist_ok=True)
    _put(out_dir, "metrics.csv", run.sampler.to_csv())
    with open(os.path.join(out_dir, "trace.csv"), "w") as fh:
        run.sim.trace.write_csv(fh)
    _put(out_dir, "summary.json",
         json.dumps(artifact["summary"] | {"experiment": name},
                    indent=2, sort_keys=True, default=str))
