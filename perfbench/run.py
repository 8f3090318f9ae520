#!/usr/bin/env python3
"""mqsim benchmark: one seeded workload per run, one process, one thread.

    python3 perfbench/run.py --workload sim-table1 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds`` of host
time.  ``--trace 1`` runs the workload's fixed prefix of jobs three times
(warm-up, untraced, under the span recorder) and reports the per-layer
metrics.  The
last line of standard output is the JSON result; the line before it is the
full record (environment stamp, result digest, gate counts, extra metrics),
which ``--out FILE`` also appends to FILE for ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_SAMPLES = 5
MIN_OPS = 100
REFUSED_ENV = ("MQSIM_ORACLE_BACKEND", "MQSIM_NO_NUMBA")
WORKLOAD_NAMES = ("sim-table1", "rtt-sweep", "bound-sweep", "bound-tiny")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", metavar="FILE", help="append the full record to FILE")
    p.add_argument("--spans", metavar="FILE",
                   help="with --trace 1, write every span to FILE as JSON lines")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)  # one set-up sample, for setup_s
    return p.parse_args(argv)


def import_mqsim():
    """Import mqsim from this checkout's src/, never from anywhere else."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # one thread: no numpy thread pools
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import mqsim
    if not os.path.abspath(mqsim.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"mqsim imported from {mqsim.__file__}, not {SRC}")
    import workloads
    return workloads


def generate(wl, seed: int):
    """The seeded job stream, with its digest prefix already drawn."""
    rng = random.Random(f"{wl.name}:{seed}")
    stream = wl.jobs(rng)
    prefix = [next(stream) for _ in range(wl.prefix)]
    return prefix, stream


def setup_seconds(workload: str, seed: int) -> list:
    """Wall time from process start until the first op could start (mqsim
    and numpy imported, inputs generated), measured in fresh processes."""
    out = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed with code {code}")
        out.append(elapsed)
    return out


class Tally:
    """Op latencies, host time and outcomes over a sequence of jobs."""

    def __init__(self):
        self.op_ns = array("q")
        self.busy_ns = 0
        self.sim_us = 0
        self.jobs = 0
        self.attempted = 0
        self.failed = 0
        self.digest: list = []
        self.gate: dict = {}
        self.problems: list = []

    def run(self, wl, runner, job, keep_digest: bool, after=None):
        self.jobs += 1
        if wl.collect_garbage:
            gc.collect()
        t0 = time.perf_counter_ns()
        try:
            res = runner(job)
        except Exception:  # a job that raises is a failed op, and the run goes on
            # charge its host time, so that raising early never reads as fast
            self.busy_ns += time.perf_counter_ns() - t0
            n = wl.ops_per_job(job)
            self.attempted += n
            self.failed += n
            self.problems.append(traceback.format_exc(limit=3))
            if keep_digest:
                self.digest.append("raised")
            return
        finally:
            if after is not None:
                after()
        self.op_ns.extend(res.op_ns)
        self.busy_ns += res.busy_ns
        self.sim_us += res.sim_us
        self.attempted += len(res.op_ns)
        if res.failed:
            self.failed += len(res.op_ns)
            self.problems.extend(res.problems)
        for key, val in res.gate.items():
            self.gate[key] = self.gate.get(key, 0) + val
        if keep_digest:
            self.digest.append(res.digest_item)

    def digest_hex(self) -> str:
        text = json.dumps(self.digest, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def environment(oracle) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "oracle_backend": oracle.sweep_backend_name(),
        "numba_imports": "numba" in sys.modules,
    }


def measure(wl, runner, prefix, stream, seconds: float) -> Tally:
    """Run the prefix, then further jobs until ``seconds`` of wall time have
    passed and at least ``MIN_OPS`` ops are timed."""
    tally = Tally()
    t_end = time.perf_counter() + seconds
    for job in prefix:
        tally.run(wl, runner, job, keep_digest=True)
    while time.perf_counter() < t_end or len(tally.op_ns) < MIN_OPS:
        tally.run(wl, runner, next(stream), keep_digest=False)
    return tally


def quantile_ms(op_ns, q: int) -> float:
    if q == 50:
        return statistics.median(op_ns) / 1e6
    return statistics.quantiles(op_ns, n=100, method="inclusive")[q - 1] / 1e6


def end_to_end(args, wl, prefix, stream, runner):
    setups = setup_seconds(wl.name, args.seed)
    tally = measure(wl, runner, prefix, stream, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    busy_s = tally.busy_ns / 1e9
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(tally.op_ns) / busy_s, "1/s"),
        "op_p50_ms": (quantile_ms(tally.op_ns, 50), "ms"),
        "op_p90_ms": (quantile_ms(tally.op_ns, 90), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {"jobs": (tally.jobs, "count"),
             "busy_s": (busy_s, "s"),
             "setup_samples_s": (setups, "s")}
    if wl.name == "sim-table1":
        extra["sim_s_per_wall_s"] = (tally.sim_us / 1e6 / busy_s, "s/s")
    elif wl.name == "rtt-sweep":
        extra["points_per_s"] = (tally.jobs / busy_s, "1/s")
    else:
        extra["inputs_per_s"] = (tally.jobs / busy_s, "1/s")
    return tally, metrics, extra


def traced(args, wl, prefix, runner):
    """Warm-up, untraced and traced passes over the prefix."""
    from spans import SpanRecorder
    warm, plain, tally = Tally(), Tally(), Tally()
    for pass_tally in (warm, plain):  # the first pass pays one-time costs
        for job in prefix:
            pass_tally.run(wl, runner, job, keep_digest=True)
    rec = SpanRecorder()
    rec.install()
    try:
        for job in prefix:
            tally.run(wl, runner, job, keep_digest=True, after=rec.drain)
    finally:
        rec.uninstall()
    if args.spans:
        rec.write(args.spans)
    metrics = rec.layer_metrics()
    metrics["bench.trace_overhead_ratio"] = (tally.busy_ns / plain.busy_ns, "ratio")
    metrics["bench.traced_ops"] = (len(tally.op_ns), "count")
    for other in (warm, plain):
        tally.attempted += other.attempted
        tally.failed += other.failed
        tally.problems += other.problems
    if not warm.digest_hex() == plain.digest_hex() == tally.digest_hex():
        tally.problems.append("the warm-up, untraced and traced passes disagree")
        tally.failed += len(tally.op_ns)
    return tally, metrics, {}


def main(argv=None) -> int:
    args = parse_args(argv)
    refused = [v for v in REFUSED_ENV if v in os.environ]
    if refused:
        print(f"refusing to run: {', '.join(refused)} is set; numbers from "
              "different oracle backends must not be compared", file=sys.stderr)
        return 2
    workloads = import_mqsim()
    wl = workloads.WORKLOADS[args.workload]
    prefix, stream = generate(wl, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    runner = wl.make_runner()
    if args.trace:
        tally, metrics, extra = traced(args, wl, prefix, runner)
    else:
        tally, metrics, extra = end_to_end(args, wl, prefix, stream, runner)

    from mqsim.bounds import oracle
    digest = tally.digest_hex()
    result = {"correct": tally.failed == 0 and tally.attempted >= 1,
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": environment(oracle),
        "result_digest": digest, "gate": tally.gate,
        "problems": tally.problems[:5],
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "result": result,
    }
    for name, (val, unit) in list(metrics.items()) + list(extra.items()):
        print(f"{name:<32} {val} {unit}")
    print(f"{'result_digest':<32} {digest}")
    for key, val in sorted(tally.gate.items()):
        print(f"{'gate.' + key:<32} {val} count")
    for problem in tally.problems[:5]:
        print(f"problem: {problem}", file=sys.stderr)
    line = json.dumps(record, sort_keys=True)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(line + "\n")
    print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
