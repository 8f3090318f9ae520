"""Exact-arithmetic checks of the analytic engine."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from mqsim.bounds import (CommBoundInput, brute_force_worst_rtt,
                          clock_adjustment, comm_breakdown, migration_bound,
                          observation_delay, rtt_bound, rtt_segments, step_f)
from mqsim.bounds.oracle import worst_point
from mqsim.errors import DegenerateInput
from oracle_reference import comm_breakdown_reference, ticks_reference


def test_step_function():
    assert step_f(1) == 1
    assert step_f(Fraction(1, 2)) == 0
    assert step_f(Fraction(28, 1)) == 1
    assert step_f(0) == 0


class TestMigrationBound:
    def test_golden_values_exact(self):
        assert migration_bound(Fraction("5.4"), 10, 50) == Fraction("5.4")
        assert migration_bound(20, 10, 50) == 100
        assert migration_bound(Fraction("26.4"), 10, 50) == Fraction("106.4")
        assert migration_bound(Fraction("891.4"), 10, 50) == Fraction("4451.4")

    def test_verdicts_against_next_event(self):
        e_s = Fraction("79.8")
        ok = lambda d: e_s >= migration_bound(Fraction(d), 10, 50)
        assert ok("5.4")
        assert not ok("20")
        assert not ok("26.4")
        assert not ok("891.4")

    def test_twenty_is_first_violating_cost(self):
        # below two full budgets the bound stays under the 79.8 next-event
        # time; exactly at 20 it jumps to two periods
        assert migration_bound(Fraction("19.9"), 10, 50) == Fraction("59.9")
        assert Fraction("59.9") <= Fraction("79.8")
        assert migration_bound(20, 10, 50) == 100 > Fraction("79.8")

    def test_right_discontinuity_at_budget_multiples(self):
        for k in (1, 2, 7):
            assert migration_bound(k * 10, 10, 50) == k * 50
            just_below = migration_bound(k * 10 - Fraction(1, 1000), 10, 50)
            assert just_below == (k - 1) * 50 + 10 - Fraction(1, 1000)

    def test_rejects_nonpositive(self):
        for delta, c_m, t_m in ((1, 0, 1), (1, 1, 0), (1, -1, 1), (-1, 1, 1)):
            with pytest.raises(ValueError):
                migration_bound(delta, c_m, t_m)
        assert migration_bound(0, 1, 1) == 0


class TestClockAdjustment:
    def test_direct_substitution(self):
        assert clock_adjustment(1000, 400, 10, 100) == 480

    def test_synchronized_clocks(self):
        assert clock_adjustment(12345, 12345, 0, 0) == 0

    def test_skew_dominates(self):
        assert clock_adjustment(10_000 + 102, 0, 1, 100) == 10_000


class TestCommBreakdown:
    def test_worked_example_every_symbol(self):
        bd = comm_breakdown(CommBoundInput(2, 10, 3, 15, 5, 4))
        assert (bd.l_s, bd.l_d) == (1, 2)
        assert (bd.s, bd.d) == (29, 28)
        assert bd.r_floor == 2
        assert (bd.q, bd.p, bd.b) == (7, -1, 2)
        assert (bd.n1, bd.n2, bd.e) == (1, 0, 1)
        assert (bd.w, bd.w_shifted) == (48, 49)

    def test_leftover_budget_regime(self):
        bd = comm_breakdown(CommBoundInput(20, 100, 2, 10, 1, 1))
        assert bd.l_s == 19
        assert bd.d == 9
        assert bd.case_id == 1
        assert bd.w == bd.w_shifted == 90

    def test_exact_multiple_convention(self):
        # pins the paper variant's convention; rtt_bound corrects it (see
        # TestRttBound.test_request_of_one_whole_budget)
        bd = comm_breakdown(CommBoundInput(5, 20, 3, 15, 5, 1))
        assert bd.l_s == 5          # (n mod C_s) == 0 leaves a "full" leftover
        assert bd.s == 15           # T_s - C_s

    def test_shift_never_negative(self):
        bd = comm_breakdown(CommBoundInput(7, 19, 4, 11, 3, 2))
        assert bd.e >= 0
        assert bd.w_shifted >= bd.w

    def test_division_guard_always_runnable_sender(self):
        # T_s == C_s: the in-window test degenerates to a sign test on Q
        bd = comm_breakdown(CommBoundInput(5, 5, 7, 7, 5, 3))
        assert bd.w_shifted >= bd.w

    def test_division_guard_zero_partial_budget(self):
        # Q == 0, so P = Q - (T_s - C_s) is negative: case 4 with no shift.
        # P == 0 itself is TestIntegerChain's ``zero-p-positive-n2``.
        bd = comm_breakdown(CommBoundInput(10, 20, 10, 30, 5, 5))
        assert (bd.p, bd.q, bd.n2) == (-10, 0, 0)
        assert bd.w == bd.w_shifted == 30
        assert bd.case_id == 4

    def test_zero_request_raises(self):
        with pytest.raises(DegenerateInput):
            CommBoundInput(2, 10, 3, 15, 0, 4)

    def test_negative_work_raises(self):
        with pytest.raises(ValueError):
            CommBoundInput(2, 10, 3, 15, -1, 4)
        with pytest.raises(ValueError):
            CommBoundInput(2, 10, 3, 15, 5, Fraction(-1, 3))

    def test_invalid_vcpu_parameters(self):
        with pytest.raises(ValueError):
            CommBoundInput(11, 10, 3, 15, 5, 4)
        with pytest.raises(ValueError):
            CommBoundInput(2, 10, 0, 15, 5, 4)

    def test_json_view_round_trips_ints(self):
        bd = comm_breakdown(CommBoundInput(2, 10, 3, 15, 5, 4))
        d = bd.as_dict()
        assert d["W"] == 48 and d["W_shifted"] == 49
        assert d["inputs"]["request_work"] == 5

    def test_w_and_w_shifted_fields(self):
        bd = comm_breakdown(CommBoundInput(2, 10, 3, 15, 5, 4))
        assert bd.w == 48
        assert bd.w_shifted == 49


def _rational_input(rng):
    """Seeded rational parameters with denominators up to 6."""
    q = [rng.randint(1, 6) for _ in range(6)]
    c_s = Fraction(rng.randint(1, 30), q[0])
    t_s = c_s + Fraction(rng.randint(0, 40), q[1])
    c_d = Fraction(rng.randint(1, 30), q[2])
    t_d = c_d + Fraction(rng.randint(0, 40), q[3])
    n = Fraction(rng.randint(1, 60), q[4])
    m = Fraction(rng.randint(0, 60), q[5])
    return CommBoundInput(c_s, t_s, c_d, t_d, n, m)


def assert_same_breakdown(inp):
    """``comm_breakdown`` equals the Fraction transcription of the chain in
    every field, value and type, and in its JSON view."""
    got, ref = comm_breakdown(inp), comm_breakdown_reference(inp)
    for f in dataclasses.fields(ref):
        a, b = getattr(got, f.name), getattr(ref, f.name)
        assert (a, type(a)) == (b, type(b)), (f.name, inp)
    assert got.as_dict() == ref.as_dict(), inp


class TestIntegerChain:
    """``comm_breakdown`` runs on the common tick; the Fraction
    transcription in ``oracle_reference`` is its reference."""

    def test_equals_reference_exhaustively_up_to_6(self):
        r = range(1, 7)
        vcpus = [(c, t) for c in r for t in r if c <= t]
        count = 0
        for (c_s, t_s), (c_d, t_d), n, m in itertools.product(
                vcpus, vcpus, r, range(0, 7)):
            assert_same_breakdown(CommBoundInput(c_s, t_s, c_d, t_d, n, m))
            count += 1
        assert count == 18522

    def test_equals_reference_on_rational_inputs(self):
        """Seeded inputs whose parameters have denominators up to 6."""
        rng = random.Random(23)
        for _ in range(1000):
            assert_same_breakdown(_rational_input(rng))

    @pytest.mark.parametrize("args, holds", [
        # zero gap (C_s = T_s): the in-window step is a sign test on Q
        pytest.param((3, 3, 2, 2, 1, 4), lambda bd: bd.q == 0 and bd.case_id == 2,
                     id="zero-gap-q0"),
        pytest.param((3, 3, 2, 2, 1, 3), lambda bd: bd.q == 1 and bd.case_id == 3,
                     id="zero-gap-q1"),
        pytest.param((5, 5, 7, 7, 5, 3), lambda bd: bd.q == 3 and bd.case_id == 1,
                     id="zero-gap-case1"),
        # P < 0 with C_s - L_s > 0
        pytest.param((2, 10, 3, 15, 5, 4), lambda bd: bd.p == -1 and bd.l_s == 1,
                     id="negative-p-worked-example"),
        pytest.param((3, 4, 2, 2, 1, 4), lambda bd: bd.p == -1 and bd.l_s == 2,
                     id="negative-p"),
        pytest.param((3, 4, 2, 2, 1, 3), lambda bd: bd.p == 0 and bd.n2 == 1,
                     id="zero-p-positive-n2"),
        pytest.param((20, 100, 20, 100, 5, 0), lambda bd: bd.d == -20,
                     id="zero-response"),
        # whole-budget multiples: L = C
        pytest.param((20, 100, 20, 100, 5, 20), lambda bd: bd.l_d == 20 and bd.d == 80,
                     id="whole-budget-response"),
        pytest.param((5, 20, 3, 15, 5, 1), lambda bd: bd.l_s == 5 and bd.s == 15,
                     id="whole-budget-request"),
        pytest.param((4, 12, 3, 9, 8, 6), lambda bd: (bd.l_s, bd.l_d) == (4, 3),
                     id="whole-budget-both"),
        pytest.param((1, 5, Fraction(3, 2), Fraction(15, 2), Fraction(5, 2), 2),
                     lambda bd: bd.w_shifted == Fraction(49, 2)
                     and bd.r == Fraction(27, 10), id="worked-example-halved"),
    ])
    def test_named_edge_cases(self, args, holds):
        inp = CommBoundInput(*args)
        assert holds(comm_breakdown(inp))
        assert_same_breakdown(inp)

    def test_byte_form_on_its_fine_tick(self):
        # 2048 bytes at 5/2048 and at 4/2048 ticks per byte, plus K = 1/3
        assert_same_breakdown(CommBoundInput(2, 10, 3, 15, 5, 4 + Fraction(1, 3)))


def assert_same_ticks(inp, *extra):
    got, ref = inp.ticks(*extra), ticks_reference(inp, *extra)
    assert got == ref, (inp, extra)
    assert type(got[0]) is int and all(type(v) is int for v in got[1]), inp


class TestTicks:
    """``ticks()`` reads the tick each input computed once; the reference
    recomputes it from the fields."""

    def test_integer_inputs_exhaustively_up_to_6(self):
        r = range(1, 7)
        vcpus = [(c, t) for c in r for t in r if c <= t]
        for (c_s, t_s), (c_d, t_d), n, m in itertools.product(
                vcpus, vcpus, r, range(0, 7)):
            inp = CommBoundInput(c_s, t_s, c_d, t_d, n, m)
            assert_same_ticks(inp)
            assert_same_ticks(inp, c_s - 1)

    def test_rational_inputs(self):
        rng = random.Random(29)
        for _ in range(1000):
            inp = _rational_input(rng)
            assert_same_ticks(inp)
            assert_same_ticks(inp, inp.c_s * Fraction(rng.randint(0, 5), 6))

    def test_byte_form(self):
        """A message enters only through its work: 2048 bytes at 1/8 tick
        per byte is 256 ticks, on a whole tick."""
        for c_s, t_s in ((2, 10), (Fraction(3, 2), 5), (7, Fraction(29, 3))):
            inp = CommBoundInput(c_s, t_s, 3, 15, 256, 256)
            assert_same_ticks(inp)
            assert_same_ticks(inp, Fraction(1, 2))
        assert inp.ticks()[0] == 3 and inp.request_work == 256
        whole = CommBoundInput(2, 10, 3, 15, 256, 256)
        assert whole.ticks() == (1, [2, 10, 3, 15, 256, 256])
        assert whole.ticks(Fraction(1, 2)) == (2, [4, 20, 6, 30, 512, 512, 1])
        # 1000 bytes at 1/8 plus a service time of 1/3
        served = CommBoundInput(2, 10, 3, 15, 256, 125 + Fraction(1, 3))
        assert_same_ticks(served)
        assert_same_ticks(served, Fraction(1, 2))
        assert served.ticks() == (3, [6, 30, 9, 45, 768, 376])

    def test_rational_extras(self):
        rng = random.Random(31)
        inputs = [CommBoundInput(2, 10, 3, 15, 5, 4),
                  CommBoundInput(1, 5, Fraction(3, 2), Fraction(15, 2),
                                 Fraction(5, 2), 2)]
        for inp in inputs:
            for _ in range(200):
                extra = [Fraction(rng.randint(-20, 20), rng.randint(1, 12))
                         for _ in range(rng.randint(1, 3))]
                assert_same_ticks(inp, *extra)
            assert_same_ticks(inp, 3, Fraction(7, 4), 0)

    def test_repeated_calls_do_not_share_the_list(self):
        inp = CommBoundInput(2, 10, 3, 15, 5, 4)
        inp.ticks()[1][0] = 99
        assert inp.ticks() == (1, [2, 10, 3, 15, 5, 4])


class TestTypes:
    """Every rational value the bound engine hands out is a ``Fraction``,
    on integer inputs as on rational ones."""

    INPUT_FIELDS = ("c_s", "t_s", "c_d", "t_d", "request_work", "response_work")

    @pytest.mark.parametrize("inp", [
        CommBoundInput(2, 10, 3, 15, 5, 4),
        CommBoundInput(20, 100, 20, 100, 5, 0),
        CommBoundInput(1, 5, Fraction(3, 2), Fraction(15, 2),
                       Fraction(5, 2), 2),
        CommBoundInput(2, 10, 3, 15, 256, 256),
        CommBoundInput(2.5, 10, 3, 15, 1, Fraction(1, 2)),
    ], ids=["integer", "zero-response", "rational", "byte-form", "mixed"])
    def test_everything_is_a_fraction(self, inp):
        def not_fractions(obj, names):
            return {n: type(getattr(obj, n)).__name__ for n in names
                    if type(getattr(obj, n)) is not Fraction}

        assert not_fractions(inp, self.INPUT_FIELDS) == {}
        bound = rtt_bound(inp)
        assert not_fractions(bound, ("tick", "completion", "observed")) == {}
        for seg in (bound.worst_completion, bound.worst_observed,
                    rtt_segments(inp, 0)):
            assert not_fractions(seg, ("sigma", "request", "response",
                                       "observation", "completion",
                                       "observed")) == {}
        assert type(brute_force_worst_rtt(inp)) is Fraction
        assert {k: type(v) for k, v in worst_point(inp).items()} == {
            "sigma": Fraction, "request": Fraction, "response": Fraction}


class TestRttBound:
    def test_worked_example(self):
        inp = CommBoundInput(2, 10, 3, 15, 5, 4)
        bound = rtt_bound(inp)
        assert bound.tick == 1
        assert bound.completion == 49     # the oracle's maximum
        assert bound.observed == 50       # one tick above the paper's W' = 49
        at = bound.worst_observed
        assert (at.sigma, at.request, at.response, at.observation) == (0, 21, 28, 1)

    def test_whole_budget_response_is_not_short(self):
        inp = CommBoundInput(20, 100, 20, 100, 5, 20)
        assert comm_breakdown(inp).d == 80            # paper: L_d = C_d
        assert rtt_bound(inp).worst_completion.response == 100

    def test_zero_response(self):
        inp = CommBoundInput(20, 100, 20, 100, 5, 0)
        assert comm_breakdown(inp).d == -20           # paper: D = -C_d
        assert rtt_bound(inp).worst_completion.response == 0

    def test_request_of_one_whole_budget(self):
        inp = CommBoundInput(5, 20, 3, 15, 5, 1)
        assert comm_breakdown(inp).s == 15            # paper: L_s = C_s
        assert rtt_segments(inp, 0).request == 5      # fits the full budget
        # from any later offset the last ticks wait out one gap: 5 + 15
        assert rtt_segments(inp, 1).request == 20
        assert rtt_bound(inp).worst_completion.request == 20

    def test_segments_sum_to_totals(self):
        seg = rtt_segments(CommBoundInput(
            20_000, 100_000, 20_000, 100_000, 5_000, 5_000), 15_001)
        assert (seg.request, seg.response, seg.observation) == (85000, 85000, 14999)
        assert (seg.completion, seg.observed) == (170000, 184999)

    def test_offset_outside_budget_rejected(self):
        inp = CommBoundInput(2, 10, 3, 15, 5, 4)
        with pytest.raises(ValueError):
            rtt_segments(inp, 2)

    def test_observation_delay(self):
        assert observation_delay(20, 100, 119) == 0        # inside a window
        assert observation_delay(20, 100, 120) == 80       # window just ended
        assert observation_delay(20, 100, 199) == 1
        assert observation_delay(5, 5, 7) == 0             # no gap at all

    def test_rational_inputs_scale_exactly(self):
        halved = rtt_bound(CommBoundInput(
            1, 5, Fraction(3, 2), Fraction(15, 2), Fraction(5, 2), 2))
        assert halved.tick == Fraction(1, 2)
        assert halved.completion == Fraction(49, 2)
        assert halved.observed == 25

    def test_does_not_import_the_oracle(self):
        import ast
        from mqsim.bounds import formulas
        tree = ast.parse(open(formulas.__file__).read())
        modules = [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
        modules += [a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                    for a in n.names]
        assert not any("oracle" in m for m in modules)
