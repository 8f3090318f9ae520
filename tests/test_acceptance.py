"""The acceptance gate: every criterion at its stated tolerance, one
pass/fail line each.

Two criteria assert that the worst round trip never exceeds the sound
segment-wise bound over unrestricted sweeps: the oracle's maximum against its
``completion`` total (criterion 3) and the simulator's against its
``observed`` total, at 85% tightness (criterion 4).  Both report how often
the paper variant's W' is exceeded, and a failure names the segment that
overshot.
"""

import pytest

from mqsim.acceptance import (CRITERIA, Runs, _fig12_overshoot, _overshoot,
                              run_criterion)

RUNTIME_LIMITS_S = {
    "1-migration-bound-golden-values": 1.0,
    "2-roundtrip-worked-example": 1.0,
    "3-bound-soundness-randomized": 120.0,
    "4-roundtrip-bound-five-cases": 300.0,
    "5-containment-under-criterion": 30.0,
    "9-sporadic-server-law": 60.0,
}


@pytest.fixture(scope="module")
def runs():
    """One memo for the module, as one ``mqsim verify`` invocation has."""
    return Runs()


@pytest.mark.parametrize("name", [name for name, _ in CRITERIA])
def test_criterion(name, runs):
    result = run_criterion(name, runs)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.name} ({result.elapsed:.1f}s) {result.detail}")
    limit = RUNTIME_LIMITS_S.get(name)
    if limit is not None:
        assert result.elapsed < limit, \
            f"{name} took {result.elapsed:.1f}s, limit {limit}s"
    assert result.passed, f"{name}: {result.detail}"


def test_overshoot_names_the_first_segment_above_the_model():
    model = {"request": 10, "response": 20}
    assert _overshoot({"request": 10, "response": 21}, model) \
        == "response overshot (21 > 20)"
    assert _overshoot({"request": 10, "response": 20}, model) \
        == "no single segment above the model"


@pytest.mark.parametrize("exchange, named", [
    ({"start": 16_000, "sigma": 16_000, "request": 85_000, "response": 90_000,
      "observation": 0}, "response overshot (90000 > 85000)"),
    # the response ends 125000 in, 75000 before the sender's next window
    ({"start": 16_000, "sigma": 16_000, "request": 85_000, "response": 24_000,
      "observation": 80_000}, "observation overshot (80000 > 75000)"),
    ({"start": 30_000, "sigma": 30_000, "request": 5_000, "response": 5_000,
      "observation": 0}, "request started at offset 30000"),
])
def test_fig12_failure_names_the_segment(exchange, named):
    detail = _fig12_overshoot("case2", exchange)
    assert detail.startswith(named)


def test_fig12_worst_exchange_reproduces_the_row_maximum():
    from mqsim.experiments import experiment_fig12, fig12_worst_exchange
    row = experiment_fig12(exchanges=8, grid=2)["rows"][0]
    ex = fig12_worst_exchange(row, grid=2)
    assert ex["request"] + ex["response"] + ex["observation"] \
        == row["observed_max"]
