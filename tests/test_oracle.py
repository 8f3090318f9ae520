"""Brute-force sweep oracle: the separable sweep against the two-dimensional
reference, and reference cases."""

import itertools
import random
import warnings
from fractions import Fraction

import pytest

from mqsim.bounds import (CommBoundInput, brute_force_worst_rtt, comm_breakdown,
                          rtt_bound)
from mqsim.bounds.oracle import _worst, worst_point
from oracle_reference import _send_end, worst_2d


def test_worked_example_bracket():
    inp = CommBoundInput(2, 10, 3, 15, 5, 4)
    got = brute_force_worst_rtt(inp)
    assert 48 <= got <= 49


def test_always_runnable_is_pure_work():
    inp = CommBoundInput(5, 5, 7, 7, 5, 3)
    assert brute_force_worst_rtt(inp) == 8
    with_k = CommBoundInput(5, 5, 7, 7, 5, 3 + 2)  # service time K = 2
    assert brute_force_worst_rtt(with_k) == 10


def test_separable_sweep_equals_2d_reference():
    """Seeded random inputs; the reference's first argmax has
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
        args = (c_s, t_s, c_d, t_d, n, m)
        assert _worst(*args)[0] == worst_2d(*args)[0], args
        _, sigma, te, tr = worst_2d(*args)
        point = worst_point(CommBoundInput(c_s, t_s, c_d, t_d, n, m))
        assert (point["request"], point["response"]) == (te - sigma, tr - te)
        requests = [_send_end(c_s, t_s, n, s) - s for s in range(c_s)]
        assert point["sigma"] == requests.index(max(requests))


def test_separable_sweep_equals_2d_reference_exhaustively_up_to_6():
    """Every integer input with all parameters at most 6."""
    r = range(1, 7)
    vcpus = [(c, t) for c in r for t in r if c <= t]
    count = 0
    for (c_s, t_s), (c_d, t_d), n, m in itertools.product(
            vcpus, vcpus, r, range(0, 7)):
        args = (c_s, t_s, c_d, t_d, n, m)
        assert _worst(*args)[0] == worst_2d(*args)[0], args
        count += 1
    assert count == 21 * 21 * 6 * 7


def test_rational_inputs_rescale_exactly():
    # fractional inputs are swept on their common tick (half a unit here),
    # so the half-tick alignments are covered: the worked example halved
    # gives half its maximum, which is the sound bound's completion
    halved = CommBoundInput(1, 5, Fraction(3, 2), Fraction(15, 2),
                            Fraction(5, 2), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert brute_force_worst_rtt(halved) == Fraction(49, 2)
    assert rtt_bound(halved).completion == Fraction(49, 2)
    assert brute_force_worst_rtt(CommBoundInput(2, 10, 3, 15, 5, 4)) == 49


def test_rational_inputs_equal_the_sound_completion():
    """Seeded inputs whose parameters have denominators up to 4: the sweep
    on their common tick reaches the sound bound's ``completion``."""
    rng = random.Random(11)
    for _ in range(300):
        q = [rng.randint(1, 4) for _ in range(6)]
        c_s = Fraction(rng.randint(1, 12), q[0])
        t_s = c_s + Fraction(rng.randint(0, 24), q[1])
        c_d = Fraction(rng.randint(1, 12), q[2])
        t_d = c_d + Fraction(rng.randint(0, 24), q[3])
        n = Fraction(rng.randint(1, 16), q[4])
        m = Fraction(rng.randint(0, 16), q[5])
        inp = CommBoundInput(c_s, t_s, c_d, t_d, n, m)
        assert brute_force_worst_rtt(inp) == rtt_bound(inp).completion, inp


def test_resolution_validation():
    inp = CommBoundInput(2, 10, 3, 15, 5, 4)
    for resolution in (0, 2, 7):
        with pytest.raises(ValueError):
            brute_force_worst_rtt(inp, resolution=resolution)


def test_known_unsound_regimes_are_detected():
    """The sweep is intentionally independent of the bound chain: in regimes
    the paper variant's scenario analysis does not cover (multi-window
    responses with a long receiver period) it finds exchanges above that
    variant's W' (``comm_breakdown``)."""
    inp = CommBoundInput(20, 100, 2, 10, 5, 5)
    bd = comm_breakdown(inp)
    assert brute_force_worst_rtt(inp) > bd.w_shifted


def test_worst_point_splits_the_maximum():
    inp = CommBoundInput(20, 100, 2, 10, 5, 5)
    point = worst_point(inp)
    assert point["request"] + point["response"] == brute_force_worst_rtt(inp)
    sound = rtt_bound(inp).worst_completion
    assert (point["request"], point["response"]) == (sound.request, sound.response)
