"""Metric sampling and post-run trace analysis.

Series are sampled at fixed true-time boundaries by a logger hook; post-run
checks work on the per-VCPU execution and eligibility intervals that the
scheduler records: the sliding-window budget law, replenishment
conservation, and deadline misses (a period-length window in which a VCPU
was continuously eligible yet received less than its full budget).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field


@dataclass
class MetricSeries:
    name: str
    samples: list = field(default_factory=list)  # (t_s, value)

    def values(self):
        return [v for _, v in self.samples]


class Sampler:
    """Collects counter deltas at each sample boundary."""

    def __init__(self, sim, period_us: int = 1_000_000):
        self.sim = sim
        self.period = period_us
        self.probes = []      # (name, fn)
        self.series: dict[str, MetricSeries] = {}
        self._prev: dict[str, int] = {}
        self._tick = 0

    def add_counter(self, name: str, fn):
        self.probes.append((name, fn))
        self.series[name] = MetricSeries(name)
        self._prev[name] = fn()

    def start(self):
        self._arm()

    def _arm(self):
        self._tick += 1
        t = self._tick * self.period
        self.sim.post_event(t, "sample-tick", "", None, lambda ev: self._fire())

    def _fire(self):
        t_s = self.sim.now // self.period
        for name, fn in self.probes:
            val = fn()
            self.series[name].samples.append((t_s, val - self._prev[name]))
            self._prev[name] = val
        self.sim.trace.add(self.sim.now, "", "sample", "", f"t_s={t_s}")
        self._arm()

    def to_csv(self) -> str:
        lines = ["series,t_s,value"]
        for name in self.series:
            for t_s, v in self.series[name].samples:
                lines.append(f"{name},{t_s},{v}")
        return "\n".join(lines) + "\n"


def finish_run(sim):
    """Settle and close every open execution chunk so post-run bookkeeping
    (conservation, intervals) is exact."""
    for sb in sim.sandboxes.values():
        sb.close_run()


# --- interval arithmetic ---------------------------------------------------

class IntervalSet:
    """Sorted disjoint intervals with O(log n) window-overlap queries."""

    def __init__(self, intervals):
        self.starts = [a for a, _ in intervals]
        self.ends = [b for _, b in intervals]
        acc = [0]
        for a, b in intervals:
            acc.append(acc[-1] + (b - a))
        self.acc = acc

    def overlap(self, lo: int, hi: int) -> int:
        """Total covered length inside [lo, hi)."""
        if hi <= lo or not self.starts:
            return 0
        i = bisect.bisect_right(self.ends, lo)       # first interval ending after lo
        j = bisect.bisect_left(self.starts, hi) - 1  # last interval starting before hi
        if i > j:
            return 0
        total = self.acc[j + 1] - self.acc[i]
        total -= max(0, lo - self.starts[i])
        total -= max(0, self.ends[j] - hi)
        return max(0, total)

    def fully_covers(self, lo: int, hi: int) -> bool:
        return self.overlap(lo, hi) == hi - lo


def budget_law_violations(vcpu, allowance: int = 0) -> list:
    """Sliding-window check: no more than C (+allowance) execution in any
    window of length T."""
    cap = vcpu.capacity + allowance
    out = []
    ivs = IntervalSet(vcpu.exec_intervals)
    for a, b in zip(ivs.starts, ivs.ends):
        for lo in (a, b - vcpu.period):
            got = ivs.overlap(lo, lo + vcpu.period)
            if got > cap:
                out.append((lo, got))
    return out


def replenishment_conserved(vcpu) -> bool:
    """After chunks are closed, held budget plus pending replenishments must
    equal the capacity: nothing created, nothing lost."""
    return vcpu.budget + sum(e.amount for e in vcpu.repl) == vcpu.capacity


def count_deadline_misses(vcpu, t_end: int) -> int:
    """Periods in which the VCPU was continuously eligible (ready work and
    budget on hand) but executed less than its full budget."""
    if not vcpu.exec_intervals:
        return 0
    misses = 0
    elig = IntervalSet(vcpu.eligible_intervals)
    ex = IntervalSet(vcpu.exec_intervals)
    lo = vcpu.exec_intervals[0][0]
    while lo + vcpu.period <= t_end:
        hi = lo + vcpu.period
        if elig.fully_covers(lo, hi) and ex.overlap(lo, hi) < vcpu.capacity:
            misses += 1
        lo = hi
    return misses


def compare_series(a: MetricSeries, b: MetricSeries, tol: int = 1) -> list:
    """Pairs of samples differing by more than ``tol``."""
    bad = []
    for (ta, va), (_, vb) in zip(a.samples, b.samples):
        if abs(va - vb) > tol:
            bad.append((ta, va, vb))
    return bad
