"""Brute-force worst-case round-trip sweep.

Both VCPUs are modeled as backlogged sporadic servers: a contiguous budget
window of length C at a fixed offset in every period T.  The oracle covers
the receiver window phase ``phi`` in [0, T_d) and the position ``sigma`` in
[0, C_s) of the send start inside the sender's window, advances the request
and the response through the windows with exact integer arithmetic, and
returns the largest observed round trip (send start to response completion).

The sweep is separable.  A send at ``sigma`` ends its request at
``te(sigma)`` whatever the phase, and the response then takes
``D(x) = _resp_end(..., phi, te, m) - te``, which depends only on the
request's end offset ``x = (te - phi) mod T_d`` in the receiver's period.
So one loop over ``x`` in [0, T_d) tabulates ``D``, and one loop over
``sigma`` adds to ``te - sigma`` the worst ``D`` its phases can reach:
O(C_s + T_d) helper calls per input instead of O(C_s * T_d), with the same
maximum as the two-dimensional (phi, sigma) grid.

At ``resolution`` r > 1 the grid is ``sigma`` in range(0, C_s, r) and
``phi`` in range(0, T_d, r), as in a two-dimensional sweep, and the result
is exactly that grid's maximum, at most the resolution-1 value.  When r
divides T_d those phases are every multiple of r modulo T_d, so a send meets
the worst ``D`` over the offsets congruent to its request end mod r.
Otherwise each send takes the maximum over its own phases, which costs
O(C_s * T_d / r**2) lookups in the table of ``D``.  At r = 1 every phase is
covered and the worst response is ``max D`` for every send offset.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

from mqsim.bounds.formulas import CommBoundInput
from mqsim.errors import ResolutionTooCoarse


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


def _worst(c_s, t_s, c_d, t_d, n, m, res):
    """Largest round trip on the ``res`` grid, with the first send offset
    that reaches it and that send's request and response times."""
    d = [_resp_end(c_d, t_d, 0, x, m) - x for x in range(t_d)]
    sigmas = range(0, c_s, res)
    req = [_send_end(c_s, t_s, n, s) - s for s in sigmas]
    if t_d % res == 0:  # the phases are every multiple of res mod T_d
        top = [max(d[r::res]) for r in range(res)]
        resp = [top[(q + s) % res] for q, s in zip(req, sigmas)]
    else:  # the phases do not tile the period: scan each send's own
        resp = [max(d[(q + s - p) % t_d] for p in range(0, t_d, res))
                for q, s in zip(req, sigmas)]
    total = [q + r for q, r in zip(req, resp)]
    i = total.index(max(total))
    return total[i], sigmas[i], req[i], resp[i]


def sweep_backend_name() -> str:
    """Name of the sweep implementation, stamped into benchmark records."""
    return "separable"


def _on_grid(inp: CommBoundInput, resolution: int):
    """Common integer tick, the parameters in that tick, and the step."""
    if resolution < 1:
        raise ValueError("resolution must be >= 1 tick")
    scale, vals = inp.ticks()
    return scale, vals, resolution * scale


def brute_force_worst_rtt(inp: CommBoundInput, resolution: int = 1) -> Fraction:
    """Largest round trip over the (phi, sigma) grid at ``resolution``.

    Rational inputs are rescaled to a common integer tick, swept exactly, and
    scaled back, so the result is exact at resolution 1.  Emits a
    ``ResolutionTooCoarse`` warning when the step cannot hit every distinct
    alignment of the inputs.
    """
    scale, (c_s, t_s, c_d, t_d, n, m), res = _on_grid(inp, resolution)

    params = [v for v in (c_s, t_s, c_d, t_d, n, m) if v]
    if res > math.gcd(*params):
        warnings.warn(
            f"resolution {resolution} exceeds the parameter gcd; "
            "the sweep may miss the true maximum", ResolutionTooCoarse)

    return Fraction(_worst(c_s, t_s, c_d, t_d, n, m, res)[0], scale)


def worst_point(inp: CommBoundInput) -> dict:
    """Split of the resolution-1 maximum, for explaining a bound that falls
    short: ``sigma`` is the first send offset with the longest request
    (``te - sigma``), and ``response`` is the worst response over every
    phase.  Any (phi, sigma) pair that reaches the maximum has both."""
    scale, (c_s, t_s, c_d, t_d, n, m), res = _on_grid(inp, 1)
    _, sigma, request, response = _worst(c_s, t_s, c_d, t_d, n, m, res)
    return {"sigma": Fraction(sigma, scale), "request": Fraction(request, scale),
            "response": Fraction(response, scale)}
