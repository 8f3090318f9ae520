"""Property-based checks: clock inversion, sweep/bound agreement (the paper
variant in the regime its scenario analysis covers, the sound bound
everywhere), event conservation, and the admission bound's exact
arithmetic."""

import itertools
import random

from hypothesis import event, example, given, settings, strategies as st

from mqsim.bounds import (CommBoundInput, brute_force_worst_rtt, comm_breakdown,
                          observation_delay, rtt_bound)
from mqsim.clock import SandboxClock
from mqsim.core import Simulator
from mqsim.sched import admit
from oracle_reference import _resp_end, _send_end, worst_2d


@given(offset=st.integers(-10**6, 10**6), t=st.integers(0, 10**9))
def test_clock_roundtrip_without_drift(offset, t):
    c = SandboxClock(offset=offset)
    assert c.to_true(c.to_local(t)) == t


@given(offset=st.integers(-1000, 1000), drift=st.integers(-500_000, 500_000),
       x=st.integers(0, 10**8))
def test_clock_inverse_is_earliest_with_drift(offset, drift, x):
    c = SandboxClock(offset=offset, drift_ppm=drift)
    t = c.to_true(x)
    assert c.to_local(t) >= x
    assert c.to_local(t - 1) < x


@given(offset=st.integers(-1000, 1000), drift=st.integers(-500_000, 500_000),
       a=st.integers(0, 10**6), b=st.integers(0, 10**6))
def test_clock_monotone(offset, drift, a, b):
    c = SandboxClock(offset=offset, drift_ppm=drift)
    if a <= b:
        assert c.to_local(a) <= c.to_local(b)


@st.composite
def covered_regime_inputs(draw):
    """Exchanges inside the bound's validated envelope: both messages fit
    strictly inside one budget and the response lands within the sender's
    leftover budget."""
    c_s = draw(st.integers(3, 40))
    t_s = draw(st.integers(c_s + 1, 80))
    n = draw(st.integers(2, c_s - 1))
    c_d = draw(st.integers(2, 40))
    t_d = draw(st.integers(c_d, 80))
    m = draw(st.integers(1, c_d - 1))
    return CommBoundInput(c_s, t_s, c_d, t_d, n, m)


@settings(max_examples=300, deadline=None)
@given(inp=covered_regime_inputs())
def test_sweep_never_exceeds_bound_in_covered_regime(inp):
    bd = comm_breakdown(inp)
    if bd.d >= bd.l_s:
        return  # response outlives the leftover budget: outside the envelope
    assert brute_force_worst_rtt(inp) <= bd.w_shifted


@st.composite
def any_inputs(draw):
    """Any exchange: multi-window messages, whole-budget multiples, zero
    responses, and every case of the paper variant."""
    c_s = draw(st.integers(1, 30))
    t_s = draw(st.integers(c_s, 60))
    c_d = draw(st.integers(1, 30))
    t_d = draw(st.integers(c_d, 60))
    n = draw(st.integers(1, 70))
    m = draw(st.integers(0, 70))
    return CommBoundInput(c_s, t_s, c_d, t_d, n, m)


# one input per case_id of the paper variant, 1 to 5 in order
@example(inp=CommBoundInput(4, 5, 6, 7, 6, 6))
@example(inp=CommBoundInput(2, 8, 3, 7, 1, 2))
@example(inp=CommBoundInput(4, 7, 3, 4, 4, 5))
@example(inp=CommBoundInput(2, 3, 6, 8, 4, 3))
@example(inp=CommBoundInput(4, 4, 1, 2, 4, 7))
@settings(max_examples=300, deadline=None)
@given(inp=any_inputs())
def test_sound_bound_equals_sweep_in_every_case(inp):
    event(f"paper case_id {comm_breakdown(inp).case_id}")
    bound = rtt_bound(inp)
    assert brute_force_worst_rtt(inp) == bound.completion
    assert bound.completion <= bound.observed
    assert bound.observed - bound.completion <= inp.t_s - inp.c_s


def test_sound_bound_equals_sweep_exhaustively_up_to_8():
    """Every integer input with all parameters <= 8 (93312 of them)."""
    r = range(1, 9)
    vcpus = [(c, t) for c in r for t in r if c <= t]
    count = 0
    for (c_s, t_s), (c_d, t_d), n, m in itertools.product(vcpus, vcpus, r,
                                                          range(0, 9)):
        bound = rtt_bound(CommBoundInput(c_s, t_s, c_d, t_d, n, m))
        oracle = worst_2d(c_s, t_s, c_d, t_d, n, m)[0]
        assert oracle == bound.completion, (c_s, t_s, c_d, t_d, n, m)
        count += 1
    assert count == 93312


def test_observed_bound_equals_extended_sweep_exhaustively_up_to_6():
    """The oracle's per-(phi, sigma) completion plus the sender's wait for
    its next window, maximised tick by tick, equals ``observed``."""
    r = range(1, 7)
    vcpus = [(c, t) for c in r for t in r if c <= t]
    for (c_s, t_s), (c_d, t_d), n, m in itertools.product(vcpus, vcpus, r,
                                                          range(0, 7)):
        swept = max(done + observation_delay(c_s, t_s, done) - sigma
                    for phi in range(t_d) for sigma in range(c_s)
                    for done in [_resp_end(c_d, t_d, phi,
                                           _send_end(c_s, t_s, n, sigma), m)])
        inp = CommBoundInput(c_s, t_s, c_d, t_d, n, m)
        assert rtt_bound(inp).observed == swept, (c_s, t_s, c_d, t_d, n, m)


@settings(max_examples=200, deadline=None)
@given(inp=covered_regime_inputs())
def test_shifted_bound_dominates_plain_bound(inp):
    bd = comm_breakdown(inp)
    assert bd.w_shifted >= bd.w


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_admission_bound_matches_float_formula(data):
    n = data.draw(st.integers(1, 6))
    pairs = []
    for _ in range(n - 1):
        t = data.draw(st.integers(2, 1000))
        c = data.draw(st.integers(1, t))
        pairs.append((c, t))
    t = data.draw(st.integers(2, 1000))
    c = data.draw(st.integers(1, t))
    verdict = admit(pairs, c, t, mode="ll")
    util = float(verdict.utilization_after)
    bound = n * (2 ** (1 / n) - 1)
    if abs(util - bound) > 1e-9:  # float formula is ambiguous at the boundary
        assert verdict.accepted == (util <= bound)


def test_every_posted_event_fires_exactly_once_in_order():
    rng = random.Random(99)
    sim = Simulator()
    fired = []
    expected = []
    for i in range(500):
        t = rng.randint(0, 10_000)
        eid = sim.post_event(t, "e", payload=i,
                             handler=lambda ev: fired.append(ev.payload))
        expected.append((t, eid, i))
    cancelled = set()
    for t, eid, i in expected[::7]:
        sim.cancel_event(eid)
        cancelled.add(i)
    sim.run_until(10_000)
    want = [i for (t, eid, i) in sorted(expected, key=lambda x: (x[0], x[1]))
            if i not in cancelled]
    assert fired == want


def test_no_event_fires_before_post_time():
    sim = Simulator()
    seen = []
    sim.post_event(10, "a", handler=lambda ev: seen.append(sim.now))
    sim.run_until(5)
    assert seen == []
    sim.run_until(10)
    assert seen == [10]


@settings(max_examples=60, deadline=None)
@given(c_m=st.integers(1, 50), t_m=st.integers(1, 200), k=st.integers(1, 6))
def test_migration_bound_exact_at_budget_multiples(c_m, t_m, k):
    from fractions import Fraction
    from mqsim.bounds import migration_bound
    if t_m < c_m:
        return
    assert migration_bound(k * c_m, c_m, t_m) == k * t_m
    eps = Fraction(1, 7)
    below = migration_bound(k * c_m - eps, c_m, t_m)
    assert below == (k - 1) * t_m + c_m - eps
