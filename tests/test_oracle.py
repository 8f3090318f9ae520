"""Brute-force sweep oracle: the separable sweep against the two-dimensional
reference, and reference cases."""

import itertools
import random
import warnings
from fractions import Fraction

import pytest

from mqsim.bounds import (CommBoundInput, brute_force_worst_rtt, comm_breakdown,
                          rtt_bound)
from mqsim.bounds.oracle import _send_end, _worst, worst_point
from mqsim.errors import ResolutionTooCoarse
from oracle_reference import worst_2d


def test_worked_example_bracket():
    inp = CommBoundInput.from_work(2, 10, 3, 15, 5, 4)
    got = brute_force_worst_rtt(inp, resolution=1)
    assert 48 <= got <= 49


def test_always_runnable_is_pure_work():
    inp = CommBoundInput.from_work(5, 5, 7, 7, 5, 3)
    assert brute_force_worst_rtt(inp) == 8
    with_k = CommBoundInput(c_s=5, t_s=5, c_d=7, t_d=7, n_bytes=5, m_bytes=3,
                            delta_s=1, delta_d=1, k=2)
    assert brute_force_worst_rtt(with_k) == 10


def test_separable_sweep_equals_2d_reference():
    """Seeded random inputs at resolution 1, at a resolution dividing T_d and
    at one that need not; at resolution 1 the reference's first argmax has
    ``worst_point``'s request and response, and ``worst_point``'s offset is
    the first with the longest request."""
    rng = random.Random(5)
    for _ in range(300):
        c_s = rng.randint(1, 30)
        t_s = rng.randint(c_s, 60)
        c_d = rng.randint(1, 30)
        t_d = rng.randint(c_d, 60)
        n = rng.randint(1, 40)
        m = rng.randint(0, 40)
        divisor = rng.choice([r for r in range(2, t_d + 1) if t_d % r == 0] or [1])
        for res in (1, divisor, rng.randint(2, 12)):
            args = (c_s, t_s, c_d, t_d, n, m, res)
            assert _worst(*args)[0] == worst_2d(*args)[0], args
        _, sigma, te, tr = worst_2d(c_s, t_s, c_d, t_d, n, m, 1)
        point = worst_point(CommBoundInput.from_work(c_s, t_s, c_d, t_d, n, m))
        assert (point["request"], point["response"]) == (te - sigma, tr - te)
        requests = [_send_end(c_s, t_s, n, s) - s for s in range(c_s)]
        assert point["sigma"] == requests.index(max(requests))


def test_separable_sweep_equals_2d_reference_exhaustively_up_to_6():
    """Every integer input with all parameters, the resolution included,
    at most 6."""
    r = range(1, 7)
    vcpus = [(c, t) for c in r for t in r if c <= t]
    count = 0
    for (c_s, t_s), (c_d, t_d), n, m, res in itertools.product(
            vcpus, vcpus, r, range(0, 7), r):
        args = (c_s, t_s, c_d, t_d, n, m, res)
        assert _worst(*args)[0] == worst_2d(*args)[0], args
        count += 1
    assert count == 21 * 21 * 6 * 7 * 6


def test_coarse_resolution_warns_and_lower_bounds():
    inp = CommBoundInput.from_work(20, 100, 20, 130, 5, 5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        coarse = brute_force_worst_rtt(inp, resolution=7)
    assert any(issubclass(w.category, ResolutionTooCoarse) for w in caught)
    fine = brute_force_worst_rtt(inp, resolution=1)
    assert coarse <= fine


def test_rational_inputs_rescale_exactly():
    # fractional inputs are rescaled to integer ticks internally; a 1-tick
    # resolution then only covers whole original ticks, which the coarseness
    # warning flags (the half-tick alignments carry the extra tick here)
    halved = CommBoundInput.from_work(1, 5, Fraction(3, 2), Fraction(15, 2),
                                      Fraction(5, 2), 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert brute_force_worst_rtt(halved) == 24
    assert any(issubclass(w.category, ResolutionTooCoarse) for w in caught)
    # doubling every parameter with a matching resolution scales exactly
    assert brute_force_worst_rtt(CommBoundInput.from_work(2, 10, 3, 15, 5, 4)) == 49
    doubled = CommBoundInput.from_work(4, 20, 6, 30, 10, 8)
    assert brute_force_worst_rtt(doubled, resolution=2) == 98


def test_resolution_validation():
    inp = CommBoundInput.from_work(2, 10, 3, 15, 5, 4)
    with pytest.raises(ValueError):
        brute_force_worst_rtt(inp, resolution=0)


def test_known_unsound_regimes_are_detected():
    """The sweep is intentionally independent of the bound chain: in regimes
    the paper variant's scenario analysis does not cover (multi-window
    responses with a long receiver period) it finds exchanges above that
    variant's W' (``comm_breakdown``)."""
    inp = CommBoundInput.from_work(20, 100, 2, 10, 5, 5)
    bd = comm_breakdown(inp)
    assert brute_force_worst_rtt(inp) > bd.w_shifted


def test_worst_point_splits_the_maximum():
    inp = CommBoundInput.from_work(20, 100, 2, 10, 5, 5)
    point = worst_point(inp)
    assert point["request"] + point["response"] == brute_force_worst_rtt(inp)
    sound = rtt_bound(inp).worst_completion
    assert (point["request"], point["response"]) == (sound.request, sound.response)
