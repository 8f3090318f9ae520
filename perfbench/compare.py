#!/usr/bin/env python3
"""Compare two sets of benchmark runs, a parent and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run.py --out FILE`` appends, one per run.
The report has one row per (workload, metric) listed in BENCHMARK.json:
each side's median and quartiles, the pairs won by the change, and a
verdict.  Runs are paired by seed.  The verdict follows the pairing rule:

* improved: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  distance;
* worse: the change's median is worse than the parent's by more than the
  metric's bound (for a metric without a bound: it loses 9 of 10 pairs by
  more than the parent's quartile distance);
* unresolved: the parent's own spread is wider than the bound, unless every
  change run reads better than every parent run;
* unchanged: otherwise.

A gain does not count when the change fails more ops than the parent: on a
workload where the change fails a larger share of its ops, or where a gate
count over the fixed prefix rises (the traced runs count them there, so
they repeat exactly), every verdict but worse becomes unresolved.

Per workload it also prints each side's attempted and failed ops and traced
gate counts, whether the result digests of the runs both sides made are
identical, each side's set-up samples (the cheapest sign of the host's speed
during the runs), and a warning when the environment stamps differ.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def load_records(path: str) -> list:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            rec = json.loads(line)
            if "workload" in rec and "result" in rec:
                out.append(rec)
    return out


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def wins_losses(pairs: list, better: str) -> tuple:
    """Pairs the change wins and loses; ties count for neither."""
    sign = 1 if better == "higher" else -1
    return (sum(1 for p, c in pairs if sign * (c - p) > 0),
            sum(1 for p, c in pairs if sign * (c - p) < 0))


def verdict(parent: list, change: list, pairs: list, better: str,
            bound: float | None) -> str:
    """The verdict on one metric; ``pairs`` holds (parent, change) values."""
    sign = 1 if better == "higher" else -1
    wins, losses = wins_losses(pairs, better)
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = q3 - q1
    gap = sign * (mc - mp)
    if pairs and wins >= 0.9 * len(pairs) and gap > spread:
        return "improved"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gap > spread:
            return "worse"
        return "unchanged" if mc == mp else "unresolved"
    if -gap > bound * abs(mp):
        return "worse"
    if spread > bound * abs(mp):
        all_better = all(sign * (c - p) > 0 for c in change for p in parent)
        return "unchanged" if all_better else "unresolved"
    return "unchanged"


def by_seed(records: list, workload: str, trace: int) -> dict:
    return {r["seed"]: r for r in records
            if r["workload"] == workload and r["trace"] == trace}


def pair_runs(parent: dict, change: dict) -> list:
    """(parent, change) record pairs with the same seed."""
    return [(parent[s], change[s]) for s in sorted(set(parent) & set(change))]


def outcome_problems(pairs: dict) -> list:
    """Why the change's figures on one workload cannot count as a gain;
    ``pairs`` maps each trace level to its (parent, change) record pairs."""
    out = []
    every = [pc for level in pairs.values() for pc in level]
    attempted = [sum(pc[i]["result"]["attempted"] for pc in every) for i in (0, 1)]
    failed = [sum(pc[i]["result"]["failed"] for pc in every) for i in (0, 1)]
    if failed[1] * attempted[0] > failed[0] * attempted[1]:
        out.append(f"the change fails {failed[1]} of {attempted[1]} ops, "
                   f"the parent {failed[0]} of {attempted[0]}")
    gates = gate_totals(pairs.get(1, []))
    for key in sorted(set(gates[0]) | set(gates[1])):
        if gates[1].get(key, 0) > gates[0].get(key, 0):
            out.append(f"traced gate count {key} rises from "
                       f"{gates[0].get(key, 0)} to {gates[1].get(key, 0)}")
    return out


def gate_totals(pairs: list) -> tuple:
    """Each side's gate counts summed over the record pairs."""
    totals = ({}, {})
    for pc in pairs:
        for side, rec in zip(totals, pc):
            for key, val in rec["gate"].items():
                side[key] = side.get(key, 0) + val
    return totals


def report(parent_recs: list, change_recs: list, spec: dict, out=sys.stdout):
    metrics = {0: spec["end_to_end"], 1: spec["per_layer"]}
    workloads = list(dict.fromkeys(r["workload"] for r in parent_recs + change_recs))
    pairs = {wl: {trace: pair_runs(by_seed(parent_recs, wl, trace),
                                   by_seed(change_recs, wl, trace))
                  for trace in (0, 1)}
             for wl in workloads}
    problems = {wl: outcome_problems(pairs[wl]) for wl in workloads}
    head = (f"{'workload':<12} {'metric':<28} {'parent median [q1, q3]':<36} "
            f"{'change median [q1, q3]':<36} {'wins':>6}  verdict")
    print(head, file=out)
    for wl in workloads:
        for trace in (0, 1):
            for m in metrics[trace]:
                name = m["name"]
                pv_pairs = [(p["result"]["metrics"][name]["value"],
                             c["result"]["metrics"][name]["value"])
                            for p, c in pairs[wl][trace]
                            if name in p["result"]["metrics"]
                            and name in c["result"]["metrics"]]
                if not pv_pairs:
                    continue
                pv, cv = [p for p, _ in pv_pairs], [c for _, c in pv_pairs]
                wins, _ = wins_losses(pv_pairs, m["better"])
                v = verdict(pv, cv, pv_pairs, m["better"], m.get("bound"))
                if problems[wl] and v != "worse":
                    v = "unresolved"
                print(f"{wl:<12} {name:<28} {_summary(pv):<36} {_summary(cv):<36} "
                      f"{wins:>3}/{len(pv_pairs):<2}  {v}", file=out)
    print(file=out)
    for wl in workloads:
        every = pairs[wl][0] + pairs[wl][1]
        if not every:
            print(f"{wl:<12} no common seeds", file=out)
            continue
        for i, side in enumerate(("parent", "change")):
            runs = [pc[i] for pc in every]
            attempted = sum(r["result"]["attempted"] for r in runs)
            failed = sum(r["result"]["failed"] for r in runs)
            gates = gate_totals(pairs[wl][1])[i]
            print(f"{wl:<12} {side} ops attempted {attempted} failed {failed}; "
                  f"traced gate counts {gates}", file=out)
        for problem in problems[wl]:
            print(f"{wl:<12} NO GAIN COUNTS: {problem}", file=out)
        differ = [(p["seed"], p["trace"]) for p, c in every
                  if p["result_digest"] != c["result_digest"]]
        state = "identical" if not differ else f"DIFFER at (seed, trace) {differ}"
        print(f"{wl:<12} result_digest over {len(every)} runs: {state}", file=out)
        for i, side in enumerate(("parent", "change")):
            setups = [s for pc in every if "setup_samples_s" in pc[i]["extra"]
                      for s in pc[i]["extra"]["setup_samples_s"]["value"]]
            if setups:
                print(f"{wl:<12} {side} set-up samples s {_summary(setups)}", file=out)
        envs = {json.dumps(r["env"], sort_keys=True) for pc in every for r in pc}
        if len(envs) > 1:
            print(f"{wl:<12} WARNING: environment stamps differ: {sorted(envs)}",
                  file=out)


def _summary(values: list) -> str:
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent")
    p.add_argument("change")
    args = p.parse_args(argv)
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    report(load_records(args.parent), load_records(args.change), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
