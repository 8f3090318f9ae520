"""Golden values: trace hashes, eligibility records and deadline misses of the
table1 runs behind fig9-fig11, and the round-trip samples of one fig12
sweep point.  Rerun equality alone would not catch a change that alters
behaviour the same way on every run; these pin the bytes themselves."""

import hashlib

import pytest

from mqsim import experiments

# name: (run_table1 arguments, trace hash, trace rows, SHA-256 of every
# VCPU's eligible_intervals, summed deadline misses)
TABLE1_GOLDEN = {
    "control": (dict(migrate=False), "b1879ecdaa898a5f", 10563,
                "5091d8378ac6e0b7ed461e29b6621467073a964f2dd99a85ba50fb0299373162", 0),
    "thread": (dict(migrate=True), "6119070d0627e7f5", 11596,
               "04b45ac9bcb355b89ea64057d2c62de561025f236bc28372a28e720694873bd9", 0),
    "thread-slow-copy": (dict(migrate=True, pde_extra=800), "7f7e0385f4ece8a7", 11714,
                         "6dfa2460efecaec2cd450ecb195b8f313cfb073902a03c0f36d3604f34fc50b4", 0),
    "ipi-handler-slow-copy": (dict(migrate=True, mode="ipi-handler", pde_extra=800),
                              "dffd8738bb4851b9", 5377,
                              "74d032c720fa1b59db65c1015a7d119a2d2225ea9c4ff8a32db4245e878cbb89", 7),
}


def eligible_digest(sim) -> str:
    """SHA-256 over every VCPU's eligible intervals, in VCPU id order."""
    h = hashlib.sha256()
    vcpus = sorted((v for sb in sim.sandboxes.values() for v in sb.vcpus.values()),
                   key=lambda v: v.id)
    for v in vcpus:
        h.update(f"{v.id}:{v.eligible_intervals}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", list(TABLE1_GOLDEN))
def test_table1_golden(name):
    kwargs, trace_hash, rows, intervals, misses = TABLE1_GOLDEN[name]
    res = experiments.run_table1(**kwargs)
    assert res.summary["trace_hash"] == trace_hash
    assert len(res.sim.trace.rows) == rows
    assert eligible_digest(res.sim) == intervals
    assert sum(res.summary["deadline_misses"].values()) == misses


def test_fig12_point_golden():
    """case5 (receiver 20/230 ms), busy wait 12 ms, receiver phase 101 ms."""
    c_s, t_s = experiments.FIG12_SENDER
    cfg = experiments.FIG12_CASES["case5"]
    samples = []
    worst = experiments.pingpong_case_max_rtt(
        c_s, t_s, *cfg["receiver"], experiments.FIG12_REQUEST_WORK,
        cfg["response_work"], 12_000, 101_000, 8, keep_samples=samples)
    assert samples == [(0, 12000, 94000), (1, 118000, 282000), (2, 412000, 188000),
                       (3, 612000, 188000), (4, 812000, 288000), (5, 1112000, 188000),
                       (6, 1312000, 188000), (7, 1512000, 204000)]
    assert worst == 288000
