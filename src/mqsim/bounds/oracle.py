"""Brute-force worst-case round-trip sweep.

Both VCPUs are modeled as backlogged sporadic servers: a contiguous budget
window of length C at a fixed offset in every period T.  The oracle covers
the receiver window phase ``phi`` in [0, T_d) and the position ``sigma`` in
[0, C_s) of the send start inside the sender's window, advances the request
and the response through the windows with exact integer arithmetic, and
returns the largest observed round trip (send start to response completion).

The sweep is separable.  A send at ``sigma`` ends its request at
``te(sigma)`` whatever the phase, and the response then takes a time
``D(x)`` that depends only on the request's end offset
``x = (te - phi) mod T_d`` in the receiver's period.  Every phase is swept,
so every send meets every ``x``, and the maximum is the longest request
``te - sigma`` over ``sigma`` plus the worst ``D`` over ``x`` in [0, T_d):
two plain loops of C_s and T_d steps per input instead of C_s * T_d, with
the same maximum as the two-dimensional (phi, sigma) grid.  Each step
advances the work through the windows tick-exactly; no offset is skipped
and nothing is cached between inputs.

The sweep runs on the inputs' common tick (``CommBoundInput.ticks``), so a
rational input is swept exactly: every phase and send offset the windows can
take is a whole number of those ticks.
"""

from __future__ import annotations

from fractions import Fraction

from mqsim.bounds.formulas import CommBoundInput, _exact


def _worst(c_s, t_s, c_d, t_d, n, m):
    """Largest round trip, with the first send offset that reaches it and
    that send's request and response times: the longest request over the
    send offsets plus the longest response over the offsets in [0, T_d)."""
    # the request: n ticks of sender work from each offset sigma of a window
    # [0, C_s), advanced through the sender's later windows
    request, first = -1, 0
    for sigma in range(c_s):
        rem = n - (c_s - sigma)
        if rem <= 0:
            took = n
        else:
            full = rem // c_s
            part = rem - full * c_s
            if part == 0:
                took = full * t_s + c_s - sigma
            else:
                took = (full + 1) * t_s + part - sigma
        if took > request:
            request, first = took, sigma
    # the response: m ticks of receiver work from each offset x of the
    # receiver's period, waiting out the gap first when x lies past C_d
    response = -1
    gap_d = t_d - c_d
    for x in range(t_d):
        if m == 0:
            took = 0
        else:
            if x >= c_d:
                wait, avail = t_d - x, c_d
            else:
                wait, avail = 0, c_d - x
            if m <= avail:
                took = wait + m
            else:
                w2 = m - avail
                k1 = (w2 - 1) // c_d
                took = wait + avail + gap_d + k1 * t_d + (w2 - k1 * c_d)
        if took > response:
            response = took
    return request + response, first, request, response


def sweep_backend_name() -> str:
    """Name of the sweep implementation, stamped into benchmark records."""
    return "separable"


def brute_force_worst_rtt(inp: CommBoundInput, resolution: int = 1) -> Fraction:
    """Largest round trip over every receiver phase and in-budget send
    offset.  Rational inputs are rescaled to their common integer tick,
    swept exactly, and scaled back.  ``resolution`` must be 1 (the sweep
    always steps by one common tick); any other value raises ValueError."""
    if resolution != 1:
        raise ValueError("the sweep steps by the inputs' common tick: "
                         "resolution must be 1")
    scale, vals = inp.ticks()
    return _exact(_worst(*vals)[0], scale)


def worst_point(inp: CommBoundInput) -> dict:
    """Split of the maximum, for explaining a bound that falls short:
    ``sigma`` is the first send offset with the longest request
    (``te - sigma``), and ``response`` is the worst response over every
    phase.  Any (phi, sigma) pair that reaches the maximum has both."""
    scale, vals = inp.ticks()
    _, sigma, request, response = _worst(*vals)
    return {"sigma": _exact(sigma, scale), "request": _exact(request, scale),
            "response": _exact(response, scale)}
