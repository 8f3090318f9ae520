"""Span recorder for the traced run.

It times mqsim from outside: ``install`` swaps public functions and methods
of the package for wrappers that record a span (name, start, end, parent)
or bump a counter, and ``uninstall`` puts the originals back.  Nothing
inside the package is changed.  Spans are kept in memory; ``layer_metrics``
turns them into per-layer numbers, where a span's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from collections import Counter
from fractions import Fraction

from mqsim import core, experiments, ipc, metrics, migration, scenario, sched, trace
from mqsim.bounds import formulas, oracle
from mqsim.clock import SandboxClock

# (owner, attribute, span name): calls that become plain spans; run_pingpong,
# SimTrace.to_csv and brute_force_worst_rtt are spans too, with a note of
# their arguments or result taken in ``_wrappers``
SPANS = [
    (scenario, "load_scenario", "scenario.load_scenario"),
    (scenario, "build", "scenario.build"),
    (core.Simulator, "run_until", "core.run_until"),
    (sched.Sandbox, "touch", "sched.touch"),
    (experiments, "pingpong_case_max_rtt", "experiments.pingpong_case_max_rtt"),
    (migration.MigrationEngine, "request_migration", "migration.request_migration"),
    (migration.MigrationEngine, "on_chunk_done", "migration.on_chunk_done"),
    (migration.MigrationEngine, "finalize", "migration.finalize"),
    (metrics, "finish_run", "metrics.finish_run"),
    (trace.SimTrace, "hash", "trace.hash"),
    (formulas, "comm_breakdown", "formulas.comm_breakdown"),
]


class SpanRecorder:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent index]
        self.counts: Counter = Counter()
        self.sims: list = []          # simulators created since the last drain
        self.pingpongs: list = []     # (sim, channel, exchanges, start) per call
        self.oracle_inputs: list = []  # (input, resolution) per oracle call
        self.csv_chars = 0
        self.overshoots: list = []
        self._stack: list[int] = []
        self._saved: list = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
        return wrapper

    def _wrappers(self) -> list:
        """(owner, attribute, replacement) for every patched name."""
        counts = self.counts
        out = [(owner, attr, self._span(name, getattr(owner, attr)))
               for owner, attr, name in SPANS]

        sim_init = core.Simulator.__init__

        def simulator_init(sim, *args, **kwargs):
            sim_init(sim, *args, **kwargs)
            self.sims.append(sim)

        post_event = core.Simulator.post_event

        def post_event_counted(sim, fire_at, kind, sandbox_id="", payload=None,
                               handler=None):
            counts["core.post_event"] += 1
            if handler is not None:
                inner = handler

                def handler(ev):
                    counts["core.dispatch"] += 1
                    return inner(ev)
            return post_event(sim, fire_at, kind, sandbox_id, payload, handler)

        cancel_event = core.Simulator.cancel_event

        def cancel_event_counted(sim, event_id):
            done = cancel_event(sim, event_id)
            counts["core.cancel_event"] += done
            return done

        to_true = SandboxClock.to_true

        def to_true_counted(clock, t_local):
            counts["clock.to_true"] += 1
            return to_true(clock, t_local)

        eligible = sched.Vcpu.eligible

        def eligible_counted(vcpu):
            counts["sched.eligible"] += 1
            return eligible(vcpu)

        take = ipc.Channel.take

        def take_counted(channel, task):
            msg = take(channel, task)
            counts["ipc.take"] += 1
            counts["ipc.take_hit"] += msg is not None
            return msg

        finish_send = ipc.Channel.finish_send

        def finish_send_counted(channel, *args, **kwargs):
            counts["ipc.finish_send"] += 1
            return finish_send(channel, *args, **kwargs)

        run_pingpong = self._span("ipc.run_pingpong", ipc.run_pingpong)

        def run_pingpong_noted(sim, channel, exchanges, *args, **kwargs):
            self.pingpongs.append((sim, channel, exchanges, sim.now))
            return run_pingpong(sim, channel, exchanges, *args, **kwargs)

        to_csv = self._span("trace.to_csv", trace.SimTrace.to_csv)

        def to_csv_sized(tr):
            text = to_csv(tr)
            self.csv_chars += len(text)
            return text

        brute = self._span("oracle.brute_force_worst_rtt",
                           oracle.brute_force_worst_rtt)

        def brute_noted(inp, resolution=1):
            self.oracle_inputs.append((inp, resolution))
            return brute(inp, resolution=resolution)

        out += [
            (core.Simulator, "__init__", simulator_init),
            (core.Simulator, "post_event", post_event_counted),
            (core.Simulator, "cancel_event", cancel_event_counted),
            (SandboxClock, "to_true", to_true_counted),
            (sched.Vcpu, "eligible", eligible_counted),
            (ipc.Channel, "take", take_counted),
            (ipc.Channel, "finish_send", finish_send_counted),
            (ipc, "run_pingpong", run_pingpong_noted),
            (experiments, "run_pingpong", run_pingpong_noted),
            (trace.SimTrace, "to_csv", to_csv_sized),
            (oracle, "brute_force_worst_rtt", brute_noted),
        ]
        return out

    def install(self):
        if self._saved:
            raise RuntimeError("span recorder already installed")
        for owner, attr, fn in self._wrappers():
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, fn)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- per-job collection (outside the timed calls) ----------------------------------

    def drain(self):
        """Count trace rows of the simulators the last job created and note
        how far each ``run_pingpong`` ran past its last requested sample."""
        for sim in self.sims:
            kinds = Counter(row.kind for row in sim.trace.rows)
            self.counts["trace.rows"] += len(sim.trace.rows)
            for kind in ("ctx_switch", "replenish", "sample", "mig_reject"):
                self.counts[f"rows.{kind}"] += kinds[kind]
        for sim, channel, exchanges, start in self.pingpongs:
            done = channel.task_a.rtt_samples
            if exchanges and len(done) >= exchanges:
                _, t0_local, rtt = done[exchanges - 1]
                # the fig12 sandboxes keep the default clock: local == true
                last = t0_local + rtt - start
                if last > 0:
                    self.overshoots.append((sim.now - start) / last)
        self.sims.clear()
        self.pingpongs.clear()

    # -- results ---------------------------------------------------------------

    def span_table(self) -> dict:
        """Per span name: calls, total ns, self ns and each duration."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_ns": 0,
                                          "self_ns": 0, "durations": []})
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child[i]
            row["durations"].append(end - start)
        return table

    def point_setup_ns(self) -> int:
        """Host time of each sweep point outside its ``run_pingpong`` call."""
        point = "experiments.pingpong_case_max_rtt"
        total = 0
        inner = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if name == "ipc.run_pingpong" and parent >= 0:
                inner[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            if name == point:
                total += end - start - inner[i]
        return total

    def grid_points(self) -> int:
        total = 0
        for inp, res in self.oracle_inputs:
            vals = [inp.c_s, inp.t_s, inp.c_d, inp.t_d,
                    inp.request_work, inp.response_work]
            scale = math.lcm(*(Fraction(v).denominator for v in vals))
            step = res * scale
            # the sweep visits range(0, T_d, step) x range(0, C_s, step)
            total += (-(-int(inp.t_d * scale) // step)
                      * -(-int(inp.c_s * scale) // step))
        return total

    def layer_metrics(self) -> dict:
        """Every per-layer metric as (value, unit), totalled over the traced
        jobs; a layer the workload never calls reads 0."""
        tab = self.span_table()
        c = self.counts

        def get(name, key):
            return tab.get(name, {}).get(key, 0)

        def secs(ns):
            return ns / 1e9

        def ratio(a, b):
            return a / b if b else 0.0

        def pct_ms(name, q):
            durs = sorted(tab.get(name, {}).get("durations", []))
            if not durs:
                return 0.0
            if len(durs) == 1:
                return durs[0] / 1e6
            cuts = statistics.quantiles(durs, n=10, method="inclusive")
            return (statistics.median(durs) if q == 50 else cuts[q // 10 - 1]) / 1e6

        run_until_ns = get("core.run_until", "total_ns")
        hash_self_ns = get("trace.hash", "self_ns")
        oracle_ns = get("oracle.brute_force_worst_rtt", "total_ns")
        grid = self.grid_points()
        csv_mb = self.csv_chars / 1e6
        return {
            "scenario.build_s": (secs(get("scenario.build", "total_ns")), "s"),
            "core.events_posted": (c["core.post_event"], "count"),
            "core.events_cancelled": (c["core.cancel_event"], "count"),
            "core.cancel_ratio": (ratio(c["core.cancel_event"], c["core.post_event"]),
                                  "ratio"),
            "core.run_until_self_s": (secs(get("core.run_until", "self_ns")), "s"),
            "core.dispatch_per_s": (ratio(c["core.dispatch"], secs(run_until_ns)), "1/s"),
            "clock.to_true_calls": (c["clock.to_true"], "count"),
            "sched.touch_calls": (get("sched.touch", "calls"), "count"),
            "sched.touch_self_s": (secs(get("sched.touch", "self_ns")), "s"),
            "sched.eligible_calls": (c["sched.eligible"], "count"),
            "sched.eligible_per_event": (ratio(c["sched.eligible"], c["core.dispatch"]),
                                         "ratio"),
            "sched.ctx_switches": (c["rows.ctx_switch"], "count"),
            "sched.replenishments": (c["rows.replenish"], "count"),
            "ipc.take_calls": (c["ipc.take"], "count"),
            "ipc.take_hit_ratio": (ratio(c["ipc.take_hit"], c["ipc.take"]), "ratio"),
            "ipc.finish_send_calls": (c["ipc.finish_send"], "count"),
            "ipc.run_pingpong_self_s": (secs(get("ipc.run_pingpong", "self_ns")), "s"),
            "ipc.overshoot_ratio": (statistics.median(self.overshoots or [0.0]),
                                    "ratio"),
            "ipc.overshoot_ratio_max": (max(self.overshoots, default=0.0), "ratio"),
            "experiments.point_setup_s": (secs(self.point_setup_ns()), "s"),
            "migration.requests": (get("migration.request_migration", "calls"), "count"),
            "migration.chunks": (get("migration.on_chunk_done", "calls"), "count"),
            "migration.chunk_self_s": (secs(get("migration.on_chunk_done", "self_ns")),
                                       "s"),
            "migration.completed": (get("migration.finalize", "calls"), "count"),
            "migration.rejected": (c["rows.mig_reject"], "count"),
            "metrics.samples": (c["rows.sample"], "count"),
            "metrics.finish_run_s": (secs(get("metrics.finish_run", "total_ns")), "s"),
            "trace.rows": (c["trace.rows"], "count"),
            "trace.csv_mb": (csv_mb, "MB"),
            "trace.to_csv_s": (secs(get("trace.to_csv", "total_ns")), "s"),
            "trace.hash_s": (secs(hash_self_ns), "s"),
            "trace.hash_mb_per_s": (ratio(csv_mb, secs(hash_self_ns)), "MB/s"),
            "oracle.sweep_p50_ms": (pct_ms("oracle.brute_force_worst_rtt", 50), "ms"),
            "oracle.sweep_p90_ms": (pct_ms("oracle.brute_force_worst_rtt", 90), "ms"),
            "oracle.grid_points": (grid, "count"),
            "oracle.points_per_s": (ratio(grid, secs(oracle_ns)), "1/s"),
            "formulas.calls": (get("formulas.comm_breakdown", "calls"), "count"),
            "formulas.comm_breakdown_s": (secs(get("formulas.comm_breakdown", "total_ns")),
                                          "s"),
        }

    def write(self, path: str):
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")
