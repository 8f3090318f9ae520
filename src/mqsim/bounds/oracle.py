"""Brute-force worst-case round-trip sweep.

Both VCPUs are modeled as backlogged sporadic servers: a contiguous budget
window of length C at a fixed offset in every period T.  The oracle covers
the receiver window phase ``phi`` in [0, T_d) and the position ``sigma`` in
[0, C_s) of the send start inside the sender's window, and returns the
largest observed round trip (send start to response completion).

The sweep is separable.  A send at ``sigma`` ends its request at
``te(sigma)`` whatever the phase, and the response then takes a time
``D(x)`` that depends only on the request's end offset
``x = (te - phi) mod T_d`` in the receiver's period.  Every phase is swept,
so every send meets every ``x``, and the maximum is the longest request
``te - sigma`` over ``sigma`` plus the worst ``D`` over ``x`` in [0, T_d):
C_s + T_d steps per input instead of C_s * T_d, with the same maximum as
the two-dimensional (phi, sigma) grid.

Each step is one offset's time: its work plus one gap per window boundary
it crosses, ``n + ceil((n - (C_s - sigma)) / C_s) * (T_s - C_s)`` when the
ceiling is positive, else ``n``; the same for a response that starts ``x``
into the receiver's window.  A response from ``x`` in the receiver's gap
waits ``T_d - x`` and then runs as from a window start (computed once).
No offset is skipped and nothing is cached between inputs: about 36 us per
input with parameters up to 500 (2-core Xeon, CPython 3.11).

The sweep runs on the inputs' common tick (``CommBoundInput.ticks``), so a
rational input is swept exactly: every phase and send offset the windows can
take is a whole number of those ticks.
"""

from __future__ import annotations

from fractions import Fraction

from mqsim.bounds.formulas import CommBoundInput, _exact


def _worst(c_s, t_s, c_d, t_d, n, m):
    """Largest round trip, the first send offset with the longest request,
    that request and the longest response over the offsets x in [0, T_d),
    and the first x that reaches it."""
    # the request from each send offset sigma: rem = n - (C_s - sigma) is the
    # work left at the end of the first window
    gap_s = t_s - c_s
    request, first = -1, 0
    for rem in range(n - c_s, n):
        took = n - (-rem // c_s) * gap_s if rem > 0 else n
        if took > request:
            request, first = took, rem - n + c_s
    # the response from each offset x in [0, C_d) of the receiver's window
    gap_d = t_d - c_d
    response, at = -1, 0
    for rem in range(m - c_d, m):
        took = m - (-rem // c_d) * gap_d if rem > 0 else m
        if took > response:
            response, at = took, rem - m + c_d
    # from an offset x in the gap: wait out T_d - x, then run from a window
    # start; a zero response waits for nothing
    start = m - (-(m - c_d) // c_d) * gap_d if m > c_d else m
    for x in range(c_d, t_d):
        took = t_d - x + start if m else 0
        if took > response:
            response, at = took, x
    return request + response, first, request, response, at


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
    (``te - sigma``), ``response`` is the worst response over every phase
    and ``x`` the first request-end offset in the receiver's period that
    meets it.  Any (phi, sigma) pair that reaches the maximum has both."""
    scale, vals = inp.ticks()
    _, sigma, request, response, x = _worst(*vals)
    return {"sigma": _exact(sigma, scale), "request": _exact(request, scale),
            "response": _exact(response, scale), "x": _exact(x, scale)}
