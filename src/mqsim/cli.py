"""Command-line front end.

    mqsim run <scenario.json|table1> [--until S] [--out DIR]
    mqsim experiment <fig9|fig10|fig11|fig12|tables> [--out DIR]
    mqsim bounds comm --cs .. --ts .. --cd .. --td .. --req .. --resp ..
                      [--k ..] [--oracle]
    mqsim bounds migration --delta .. --cm .. --tm .. [--es ..]
    mqsim bounds adjust --tscd .. --tscs .. --rdtsc .. --ipi ..
    mqsim verify [--fast] [--json]

``run`` and ``experiment`` write metrics.csv / trace.csv / summary.json;
``bounds`` prints the full symbol breakdown as a table plus JSON (for
``comm``: the paper variant's symbols, then the sound bound's segments under
``sound``); ``verify`` executes the acceptance suite and exits 0 only if
every criterion passes; with ``--json`` it prints one JSON object per
criterion (``name``, ``passed``, ``elapsed`` in seconds, ``detail``) as each
one finishes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from mqsim.bounds import (CommBoundInput, brute_force_worst_rtt, clock_adjustment,
                          comm_breakdown, migration_bound, rtt_bound)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mqsim", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--until", type=float, default=None, metavar="S")
    p_run.add_argument("--out", default=None, metavar="DIR")

    p_exp = sub.add_parser("experiment", help="run a named experiment")
    p_exp.add_argument("name", choices=["fig9", "fig10", "fig11", "fig12", "tables"])
    p_exp.add_argument("--out", default=None, metavar="DIR")

    p_b = sub.add_parser("bounds", help="analytic bound calculators")
    bsub = p_b.add_subparsers(dest="bounds_command", required=True)

    p_comm = bsub.add_parser("comm", help="worst-case round-trip bound")
    for flag in ("cs", "ts", "cd", "td", "req", "resp"):
        p_comm.add_argument(f"--{flag}", required=True)
    p_comm.add_argument("--k", default="0")
    p_comm.add_argument("--oracle", action="store_true")

    p_mig = bsub.add_parser("migration", help="migration-cost criterion")
    p_mig.add_argument("--delta", required=True)
    p_mig.add_argument("--cm", required=True)
    p_mig.add_argument("--tm", required=True)
    p_mig.add_argument("--es", default=None)

    p_adj = bsub.add_parser("adjust", help="clock-skew adjustment")
    for flag in ("tscd", "tscs", "rdtsc", "ipi"):
        p_adj.add_argument(f"--{flag}", required=True)

    p_ver = sub.add_parser("verify", help="run the acceptance suite")
    p_ver.add_argument("--fast", action="store_true",
                       help="shrink the randomized and sweep workloads")
    p_ver.add_argument("--json", action="store_true",
                       help="one JSON object per criterion instead of text")

    args = parser.parse_args(argv)
    return {
        "run": _cmd_run,
        "experiment": _cmd_experiment,
        "bounds": _cmd_bounds,
        "verify": _cmd_verify,
    }[args.command](args)


def _cmd_run(args) -> int:
    from mqsim.metrics import Sampler, finish_run
    from mqsim.scenario import build, builtin_scenario, load_scenario

    source = args.scenario
    if not os.path.exists(source):
        source = builtin_scenario(args.scenario)
    sc = load_scenario(source)
    for w in sc.warnings:
        print(f"warning: {w}", file=sys.stderr)
    built = build(sc, "rows" if args.out else "hash")
    sampler = Sampler(built.sim, sc.sample_period_us)
    for name, task in built.tasks.items():
        sampler.add_counter(f"counters.{name}",
                            lambda t=task: sum(t.counters.values()))
    sampler.start()
    until = int(args.until * 1_000_000) if args.until else sc.run_until_us
    built.sim.run_until(until)
    finish_run(built.sim)
    summary = {
        "trace_hash": f"{built.sim.trace.hash():016x}",
        "trace_rows": built.sim.trace.row_count,
        "until_us": until,
        "migrations": [t.job.summary() for t in built.triggers if t.job],
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "metrics.csv"), "w") as fh:
            fh.write(sampler.to_csv())
        with open(os.path.join(args.out, "trace.csv"), "w") as fh:
            fh.write(built.sim.trace.to_csv())
        with open(os.path.join(args.out, "summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True, default=str)
    print(json.dumps(summary, indent=2, sort_keys=True, default=str))
    return 0


def _cmd_experiment(args) -> int:
    from mqsim.experiments import run_experiment
    artifact = run_experiment(args.name, args.out)
    if args.name == "fig12":
        from mqsim.experiments import fig12_csv_lines
        print("\n".join(fig12_csv_lines(artifact["rows"])))
    elif args.name == "tables":
        for r in artifact["rows"]:
            print(f"{r['label']}: delta_s={r['delta_s_ms']}ms bound={r['bound_ms']}ms "
                  f"E_s={r['E_s_ms']}ms -> {r['verdict']}")
    else:
        print(json.dumps(artifact["summary"], indent=2, sort_keys=True, default=str))
    return 0


def _flat(d: dict, prefix: str = ""):
    """(dotted key, value) rows of a nested dict."""
    for key, val in d.items():
        if isinstance(val, dict):
            yield from _flat(val, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", val


def _cmd_bounds(args) -> int:
    if args.bounds_command == "comm":
        inp = CommBoundInput(Fraction(args.cs), Fraction(args.ts),
                             Fraction(args.cd), Fraction(args.td),
                             Fraction(args.req),
                             Fraction(args.resp) + Fraction(args.k))
        bd = comm_breakdown(inp)
        sound = rtt_bound(inp)
        payload = bd.as_dict()
        payload["sound"] = sound.as_dict()
        if args.oracle:
            observed = brute_force_worst_rtt(inp)
            payload["observed_max"] = str(observed)
            # the paper variant's W' can be zero or negative on valid inputs
            payload["observed_over_bound"] = (float(observed / bd.w_shifted)
                                              if bd.w_shifted > 0 else None)
            payload["observed_over_completion"] = float(observed / sound.completion)
        table = list(_flat({k: v for k, v in payload.items() if k != "inputs"}))
        width = max(len(k) for k, _ in table)
        for key, val in table:
            print(f"{key:<{width}}  {'null' if val is None else val}")
        print(json.dumps(payload, sort_keys=True))
        return 0
    if args.bounds_command == "migration":
        bound = migration_bound(Fraction(args.delta), Fraction(args.cm),
                                Fraction(args.tm))
        out = {"delta_s": args.delta, "C_m": args.cm, "T_m": args.tm,
               "bound": str(bound)}
        print(f"bound  {bound}")
        if args.es is not None:
            e_s = Fraction(args.es)
            if e_s <= 0:
                raise ValueError("E_s must be positive")
            out["E_s"] = args.es
            out["verdict"] = "eligible" if e_s >= bound else "violated"
            print(f"E_s    {args.es}\nverdict {out['verdict']}")
        print(json.dumps(out, sort_keys=True))
        return 0
    if args.bounds_command == "adjust":
        adj = clock_adjustment(Fraction(args.tscd), Fraction(args.tscs),
                               Fraction(args.rdtsc), Fraction(args.ipi))
        print(f"delta_adj  {adj}")
        print(json.dumps({"delta_adj": str(adj)}))
        return 0
    return 2


def _cmd_verify(args) -> int:
    from mqsim.acceptance import CRITERIA, Runs, run_criterion
    failed = 0
    runs = Runs()
    for name, _ in CRITERIA:
        r = run_criterion(name, runs, fast=args.fast)
        if args.json:
            print(json.dumps({"name": r.name, "passed": r.passed,
                              "elapsed": round(r.elapsed, 3),
                              "detail": r.detail}), flush=True)
        else:
            mark = "PASS" if r.passed else "FAIL"
            print(f"[{mark}] {r.name} ({r.elapsed:.1f}s) {r.detail}", flush=True)
        failed += 0 if r.passed else 1
    if not args.json:
        print(f"{len(CRITERIA) - failed}/{len(CRITERIA)} criteria passed")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
