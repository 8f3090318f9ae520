"""Reference implementations the bound engine is tested against.

``_send_end`` and ``_resp_end`` advance work through budget windows one
call per offset, and ``worst_2d`` sweeps every (phi, sigma) pair of the grid
through them: the two-dimensional reference for the separable oracle, which
inlines its own window arithmetic.  ``comm_breakdown_reference`` is the
paper variant's symbol chain transcribed on ``Fraction``, the reference for
``comm_breakdown``, which evaluates the chain on the inputs' common tick.
``ticks_reference`` computes that tick from the fields on every call, the
reference for ``CommBoundInput.ticks``, which reads it from the input."""

import math
from fractions import Fraction

from mqsim.bounds import CommBoundBreakdown, step_f


def _send_end(c_s: int, t_s: int, n: int, sigma: int) -> int:
    """Completion time of n ticks of sender work starting at window offset sigma."""
    r = c_s - sigma
    if n <= r:
        return sigma + n
    rem = n - r
    full = rem // c_s
    part = rem - full * c_s
    if part == 0:
        return full * t_s + c_s
    return (full + 1) * t_s + part


def _resp_end(c_d: int, t_d: int, phi: int, t0: int, work: int) -> int:
    """Completion time of the receiver's work, first runnable instant >= t0."""
    if work == 0:
        return t0
    x = (t0 - phi) % t_d
    if x >= c_d:
        t = t0 + (t_d - x)
        x = 0
    else:
        t = t0
    avail = c_d - x
    if work <= avail:
        return t + work
    w2 = work - avail
    k1 = (w2 - 1) // c_d
    last = w2 - k1 * c_d
    return t + avail + (t_d - c_d) + k1 * t_d + last


def worst_2d(c_s, t_s, c_d, t_d, n, m):
    """Largest round trip over phi in range(t_d) and sigma in range(c_s), and
    the first (sigma, send end, response end) that reaches it."""
    best, arg = -1, (0, 0, 0)
    for phi in range(t_d):
        for sigma in range(c_s):
            te = _send_end(c_s, t_s, n, sigma)
            tr = _resp_end(c_d, t_d, phi, te, m)
            if tr - sigma > best:
                best, arg = tr - sigma, (sigma, te, tr)
    return (best, *arg)


def _guarded_step(numer: Fraction, denom: Fraction) -> int:
    """step_f(numer/denom) with the zero-denominator conventions:
    a vanishing gap or a vanishing partial budget degenerates to a sign test."""
    if denom == 0:
        return 1 if numer > 0 else 0
    return step_f(Fraction(numer, denom))


def comm_breakdown_reference(inp) -> CommBoundBreakdown:
    """The paper variant's symbol chain, evaluated on ``Fraction``."""
    c_s, t_s, c_d, t_d = inp.c_s, inp.t_s, inp.c_d, inp.t_d
    n_work = inp.request_work
    m_work = inp.response_work

    l_s = c_s - (n_work % c_s)
    l_d = c_d - (m_work % c_d)
    s = math.ceil(n_work / c_s) * t_s - l_s
    d = math.ceil(m_work / c_d) * t_d - l_d

    r = Fraction(d - l_s, 1) / t_s
    r_floor = math.floor(r)
    # identical to D - L_s - floor(R)*T_s but stays in [0, T_s) even when D < L_s
    q = (d - l_s) % t_s
    p = q - (t_s - c_s)

    f_gap = _guarded_step(q, t_s - c_s)           # 1 iff response lands inside a window
    b = c_s - f_gap * p
    f_case1 = step_f(Fraction(d, l_s))            # 0 iff response fits the leftover budget
    w = s + d + f_case1 * (l_s + r_floor * t_s - b - d)

    n1 = (1 - f_gap) * min(q, c_s - l_s)
    n2 = f_gap * _guarded_step(c_s - l_s, p) * min(t_s - c_s, c_s - l_s - p)
    e = max(n1, n2)
    w_shifted = w + e

    if f_case1 == 0:
        case_id = 1
    elif f_gap == 0:
        case_id = 2 if r_floor <= 0 else 4
    else:
        case_id = 3 if r_floor <= 0 else 5

    return CommBoundBreakdown(inp=inp, l_s=l_s, l_d=l_d, s=s, d=d, r=r,
                              r_floor=r_floor, q=q, p=p, b=b, n1=n1, n2=n2,
                              e=e, w=w, w_shifted=w_shifted, case_id=case_id)


def ticks_reference(inp, *extra):
    """The common tick from the fields: the lcm of the denominators of C_s,
    T_s, C_d, T_d, the request work, the response work and each extra, all
    taken as ``Fraction``, and each of those values in that tick."""
    vals = [Fraction(v) for v in (
        inp.c_s, inp.t_s, inp.c_d, inp.t_d, inp.request_work,
        inp.response_work, *extra)]
    scale = math.lcm(*(v.denominator for v in vals))
    return scale, [v.numerator * (scale // v.denominator) for v in vals]
