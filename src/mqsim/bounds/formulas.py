"""Exact-arithmetic worst-case analysis of sporadic-server request/response
round trips and of address-space migration cost.

Every function takes and returns exact values (``fractions.Fraction``;
plain ints are accepted and promoted), so floor/ceil/mod boundary cases such
as a request that exactly fills a whole number of budgets are computed
without rounding error.  ``migration_bound`` computes on ``Fraction``.
The round-trip bounds rescale their inputs to the common tick
(``CommBoundInput.ticks``), the finest grid on which every parameter is
whole, compute on integers there, and scale the results back.  Each input
computes that tick and its parameters in it once, when it is built; the
bounds and the oracle read those integers rather than redo the rational
arithmetic on every call.

Two round-trip bounds live here, for a sender VCPU (C_s, T_s) and a receiver
VCPU (C_d, T_d) exchanging a request and a response.  They read each message
only as its execution work: ``N * delta_s`` ticks for an N-byte request and
``M * delta_d + K`` for an M-byte response with service time K.  The caller
computes those works, as ``mqsim.scenario`` does for a channel's byte keys.

``comm_breakdown`` is the paper variant: the published symbol chain, kept as
transcribed.  Its symbols are

    L_s  budget left in the sender's window after the request is sent
    L_d  budget left in the receiver's window after the response is sent
    S    time to emit the request when sending starts with an empty budget
    D    time from the end of the request to the end of the response
    R    elapsed sender periods until the response completes
    Q    offset of the response end past the sender's last used window
    P    sender budget consumed when the response lands inside a window
    B    sender budget remaining at receipt
    W    worst-case round trip when sending starts at the end of a budget
    W'   worst case over any start position inside the budget (W + E)

W and W' are that variant's totals, and they are not bounds.  When the
response outlives the sender's leftover budget (cases 2-5), W reduces to
S + D - Q - C_s (response ends in the sender's gap) or S + D - T_s (inside a
window): less than the request plus the worst response.  When work is a
whole number of budgets, L = C rather than 0, so S and D come out one budget
short and a zero response gives D = -C_d.

``rtt_bound`` is the sound bound.  It splits a round trip into segments

    request      send start -> request written: n + j*(T_s - C_s) for j
                 sender window boundaries crossed
    response     request written -> response written: the receiver's worst
                 wait plus its work, ceil(m/C_d)*T_d - L_d with
                 L_d = C_d*ceil(m/C_d) - m (0 at exact multiples)
    observation  response written -> the sender next runs and sees it, in
                 [0, T_s - C_s]

and reports two totals, each maximised over in-budget send offsets:
``completion`` (request + response) ends when the response is written, the
event the brute-force oracle in ``mqsim.bounds.oracle`` measures to;
``observed`` (completion + observation) ends when the sender sees the reply,
the event the simulator's sender records.  Both models assume contiguous
per-period budget windows for backlogged VCPUs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from mqsim.errors import DegenerateInput

Rational = Union[int, Fraction]


def _exact(x: int, scale: int) -> Fraction:
    """``x`` ticks of ``1/scale`` as a Fraction; the one-argument
    constructor skips the gcd when the tick is whole."""
    return Fraction(x) if scale == 1 else Fraction(x, scale)


def step_f(x: Rational) -> int:
    """Unit step: 1 if x >= 1 else 0."""
    return 1 if x >= 1 else 0


def clock_adjustment(tsc_d: Rational, tsc_s: Rational,
                     rdtsc_cost: Rational, ipi_cost: Rational) -> Rational:
    """Signed adjustment added to a migrated VCPU's future event times.

    ``tsc_s`` is sampled by the source immediately before the migration
    request IPI is sent; ``tsc_d`` by the destination when that IPI is
    received.  The two timestamp reads and the IPI flight are subtracted so
    the result approximates the pure inter-sandbox clock skew.
    """
    return tsc_d - tsc_s - 2 * rdtsc_cost - ipi_cost


def migration_bound(delta_s: Rational, c_m: Rational, t_m: Rational) -> Rational:
    """Least relative next-event time that tolerates a migration of cost
    ``delta_s`` performed by a migration-thread VCPU with budget ``c_m`` and
    period ``t_m``:

        floor(delta_s / c_m) * t_m + delta_s mod c_m

    Exact on rationals; right-discontinuous at multiples of ``c_m``.
    Raises ``ValueError`` for a negative cost or a non-positive budget or
    period.
    """
    delta_s, c_m, t_m = Fraction(delta_s), Fraction(c_m), Fraction(t_m)
    if delta_s < 0 or c_m <= 0 or t_m <= 0:
        raise ValueError("migration bound needs delta_s >= 0, C_m > 0 and T_m > 0")
    return (delta_s // c_m) * t_m + delta_s % c_m


@dataclass(frozen=True)
class CommBoundInput:
    """Parameters of one request/response exchange between two VCPUs: the
    sender's (C_s, T_s), the receiver's (C_d, T_d), and the execution work
    of the request (N * delta_s) and of the response (M * delta_d + K).

    The common tick and the parameters in it that ``ticks()`` returns are
    computed once, when the input is built."""
    c_s: Fraction
    t_s: Fraction
    c_d: Fraction
    t_d: Fraction
    request_work: Fraction
    response_work: Fraction

    def __post_init__(self):
        put = object.__setattr__
        names = ("c_s", "t_s", "c_d", "t_d", "request_work", "response_work")
        vals = [getattr(self, name) for name in names]
        if all(type(v) is int for v in vals):  # whole numbers: the tick is 1
            scale, ticks = 1, tuple(vals)
            vals = [Fraction(v) for v in vals]
        else:
            vals = [v if type(v) is Fraction else Fraction(v) for v in vals]
            scale = math.lcm(*[v.denominator for v in vals])
            ticks = tuple([v.numerator * (scale // v.denominator) for v in vals])
        for name, v in zip(names, vals):
            put(self, name, v)
        put(self, "_scale", scale)
        put(self, "_ticks", ticks)
        c_s, t_s, c_d, t_d, n, m = ticks
        if not (0 < c_s <= t_s):
            raise ValueError("sender VCPU must satisfy 0 < C_s <= T_s")
        if not (0 < c_d <= t_d):
            raise ValueError("receiver VCPU must satisfy 0 < C_d <= T_d")
        if n < 0 or m < 0:
            raise ValueError("request and response work must be non-negative")
        if n == 0:
            raise DegenerateInput("request work N*delta_s is zero")

    @classmethod
    def from_work(cls, *args) -> "CommBoundInput":
        """The constructor, positionally, under the name the benchmark calls."""
        return cls(*args)

    def ticks(self, *extra: Rational) -> tuple[int, list[int]]:
        """Ticks per unit of the finest grid on which every parameter is
        whole, and (C_s, T_s, C_d, T_d, request work, response work, *extra)
        in those ticks."""
        if not extra:
            return self._scale, list(self._ticks)
        extra = [x if type(x) is Fraction else Fraction(x) for x in extra]
        scale = math.lcm(self._scale, *(x.denominator for x in extra))
        up = scale // self._scale
        return scale, [v * up for v in self._ticks] + [
            x.numerator * (scale // x.denominator) for x in extra]


@dataclass(frozen=True)
class CommBoundBreakdown:
    """Every intermediate symbol of the round-trip chain, exact."""
    inp: CommBoundInput
    l_s: Fraction
    l_d: Fraction
    s: Fraction
    d: Fraction
    r: Fraction
    r_floor: int
    q: Fraction
    p: Fraction
    b: Fraction
    n1: Fraction
    n2: Fraction
    e: Fraction
    w: Fraction
    w_shifted: Fraction
    case_id: int

    def as_dict(self) -> dict:
        """JSON-friendly view; exact values rendered as strings when non-integral."""
        num = _num
        return {
            "inputs": {
                "C_s": num(self.inp.c_s), "T_s": num(self.inp.t_s),
                "C_d": num(self.inp.c_d), "T_d": num(self.inp.t_d),
                "request_work": num(self.inp.request_work),
                "response_work": num(self.inp.response_work),
            },
            "L_s": num(self.l_s), "L_d": num(self.l_d),
            "S": num(self.s), "D": num(self.d),
            "R_floor": self.r_floor, "Q": num(self.q), "P": num(self.p),
            "B": num(self.b), "E": num(self.e),
            "N1": num(self.n1), "N2": num(self.n2),
            "W": num(self.w), "W_shifted": num(self.w_shifted),
            "case_id": self.case_id,
        }


def _num(x):
    fx = x if type(x) is Fraction else Fraction(x)
    return int(fx) if fx.denominator == 1 else str(fx)


def comm_breakdown(inp: CommBoundInput) -> CommBoundBreakdown:
    """Evaluate the paper variant's full symbol chain for one exchange.

    The chain runs on integers in the inputs' common tick
    (``CommBoundInput.ticks``), as ``rtt_bound`` does, and each symbol is
    scaled back to an exact ``Fraction`` at the end.

    Multi-period requests and responses (work exceeding a whole budget) are
    accepted and evaluated as written; the shift term E is only derived for
    sub-budget exchanges, so oracle comparisons are the authority outside
    that regime.
    """
    scale, (c_s, t_s, c_d, t_d, n_work, m_work) = inp.ticks()
    gap = t_s - c_s

    l_s = c_s - n_work % c_s
    l_d = c_d - m_work % c_d
    s = -(-n_work // c_s) * t_s - l_s
    d = -(-m_work // c_d) * t_d - l_d

    r_floor = (d - l_s) // t_s
    # identical to D - L_s - floor(R)*T_s but stays in [0, T_s) even when D < L_s
    q = (d - l_s) % t_s
    p = q - gap

    # step(Q / gap), a sign test on Q when there is no gap:
    # 1 iff the response lands inside a window
    f_gap = (q > 0) if gap == 0 else (q >= gap)
    b = c_s - p if f_gap else c_s
    f_case1 = d >= l_s                            # 0 iff response fits the leftover budget
    w = s + d + (l_s + r_floor * t_s - b - d if f_case1 else 0)

    n1 = 0 if f_gap else min(q, c_s - l_s)
    # f_gap = 1 means Q >= T_s - C_s, so P >= 0 wherever step((C_s - L_s) / P)
    # counts: it is C_s - L_s >= P.  At P = 0 the chain's sign test on
    # C_s - L_s changes nothing, as N2 = min(T_s - C_s, C_s - L_s) is then 0
    # whenever C_s - L_s is.
    n2 = min(gap, c_s - l_s - p) if f_gap and c_s - l_s >= p else 0
    e = max(n1, n2)

    if not f_case1:
        case_id = 1
    elif not f_gap:
        case_id = 2 if r_floor <= 0 else 4
    else:
        case_id = 3 if r_floor <= 0 else 5

    frac = Fraction if scale == 1 else lambda x: Fraction(x, scale)
    return CommBoundBreakdown(
        inp=inp, l_s=frac(l_s), l_d=frac(l_d), s=frac(s), d=frac(d),
        r=Fraction(d - l_s, t_s), r_floor=r_floor, q=frac(q), p=frac(p),
        b=frac(b), n1=frac(n1), n2=frac(n2), e=frac(e), w=frac(w),
        w_shifted=frac(w + e), case_id=case_id)


# --- the sound bound ------------------------------------------------------------

@dataclass(frozen=True)
class RttSegments:
    """One round trip as named segments, for a send that starts ``sigma``
    into the sender's budget window and meets the receiver's worst phase."""
    sigma: Fraction
    request: Fraction
    response: Fraction
    observation: Fraction

    @property
    def completion(self) -> Fraction:
        return self.request + self.response

    @property
    def observed(self) -> Fraction:
        return self.completion + self.observation

    def as_dict(self) -> dict:
        return {"sigma": _num(self.sigma), "request": _num(self.request),
                "response": _num(self.response),
                "observation": _num(self.observation),
                "completion": _num(self.completion),
                "observed": _num(self.observed)}


@dataclass(frozen=True)
class RttBound:
    """The sound round-trip bound and the worst point of each total.

    Send offsets range over multiples of ``tick``, the finest grid on which
    every parameter is a whole number (1 for integer inputs, as in the
    simulator).  The oracle sweeps the same offsets."""
    inp: CommBoundInput
    tick: Fraction
    worst_completion: RttSegments
    worst_observed: RttSegments

    @property
    def completion(self) -> Fraction:
        return self.worst_completion.completion

    @property
    def observed(self) -> Fraction:
        return self.worst_observed.observed

    def as_dict(self) -> dict:
        return {"tick": _num(self.tick),
                "completion": _num(self.completion),
                "observed": _num(self.observed),
                "at_completion": self.worst_completion.as_dict(),
                "at_observed": self.worst_observed.as_dict()}


def observation_delay(c_s: Rational, t_s: Rational, t: Rational) -> Rational:
    """Time from an event at ``t`` until a sender whose windows are
    [k*T_s, k*T_s + C_s) next runs: 0 inside a window, else the rest of the
    gap.  An event exactly at a window's end waits for the next window."""
    x = t % t_s
    return 0 if x < c_s else t_s - x


def _segment_ticks(c_s, t_s, c_d, t_d, n, m, sigma):
    """(request, response, observation) in integer ticks for offset sigma."""
    crossed = -(-max(0, n - (c_s - sigma)) // c_s)
    request = n + crossed * (t_s - c_s)
    windows = -(-m // c_d)
    response = windows * t_d - (windows * c_d - m)
    return request, response, observation_delay(c_s, t_s,
                                                 sigma + request + response)


def _segments(scale: int, point: tuple) -> RttSegments:
    """(sigma, request, response, observation) in ticks, as exact segments."""
    return RttSegments(*(_exact(x, scale) for x in point))


def rtt_segments(inp: CommBoundInput, sigma: Rational) -> RttSegments:
    """Worst segments of a send that starts ``sigma`` into the sender's
    budget window (0 <= sigma < C_s), over every receiver phase."""
    scale, (c_s, t_s, c_d, t_d, n, m, s) = inp.ticks(sigma)
    if not 0 <= s < c_s:
        raise ValueError("send offset must lie in [0, C_s)")
    return _segments(scale, (s, *_segment_ticks(c_s, t_s, c_d, t_d, n, m, s)))


def rtt_bound(inp: CommBoundInput) -> RttBound:
    """Sound worst-case round trip, segment by segment.

    The receiver's phase is free, so every completion instant from the best
    to the worst response is reachable, and the instant the sender sees the
    reply never moves earlier as completion moves later: both totals peak at
    the worst response.
    The number of crossed windows j is nondecreasing in sigma and takes at
    most two values on [0, C_s), so completion peaks at the last offset.
    Within a piece of constant j the completion instant moves one tick per
    tick of sigma; ``observed`` is flat while it lands in a window and falls
    while it lands in a gap, so it peaks at a piece's first offset or where
    completion first enters a gap.  Those few offsets are evaluated exactly.
    """
    scale, (c_s, t_s, c_d, t_d, n, m) = inp.ticks()
    # first offset at which the request crosses one more window boundary
    split = min(c_s, (-(-max(0, n - c_s) // c_s) + 1) * c_s - n + 1)
    offsets = set()
    for lo, hi in ((0, split - 1), (split, c_s - 1)):
        if lo > hi:
            continue
        request, response, _ = _segment_ticks(c_s, t_s, c_d, t_d, n, m, lo)
        gap_entry = lo + (c_s - (lo + request + response)) % t_s
        offsets.update(x for x in (lo, hi, gap_entry) if x <= hi)
    points = [(s, *_segment_ticks(c_s, t_s, c_d, t_d, n, m, s))
              for s in sorted(offsets)]
    # ties go to the point that is worse on the other total
    completion = max(points, key=lambda p: (p[1] + p[2], p[3]))
    observed = max(points, key=lambda p: (p[1] + p[2] + p[3], p[1] + p[2]))
    return RttBound(inp=inp, tick=_exact(1, scale),
                    worst_completion=_segments(scale, completion),
                    worst_observed=_segments(scale, observed))
