"""Golden values: FNV-1a hashes of the trace CSVs, eligibility records and
deadline misses of the table1 runs behind fig9-fig11, the round-trip samples
of one fig12 sweep point, the traces of a corpus of seeded random
two-sandbox setups, and one digest over the bound engine's results on seeded
criterion-3 inputs.
Rerun equality alone would not catch a change that alters behaviour the same
way on every run; these pin the bytes themselves.

Run as a script (``PYTHONPATH=src python tests/test_golden.py``) to print
the current values in the form of the tables below, so that a change can be
checked against its parent commit."""

import hashlib
import json
import random

import pytest

from mqsim import acceptance, experiments
from mqsim.bounds import brute_force_worst_rtt, comm_breakdown, rtt_bound
from trace_corpus import (CORPUS_SEEDS, eligible_digest, fingerprint, fnv1a64,
                          run_setup)

# name: (run_table1 arguments, FNV-1a of the trace CSV, trace rows, SHA-256
# of every VCPU's eligible_intervals, summed deadline misses)
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

# seed: (FNV-1a of the trace CSV, trace rows, eligible-interval digest
# prefix) of ``trace_corpus.run_setup(seed)``
CORPUS_GOLDEN = {
    1: ("1963a88dc43f6da3", 270, "d9ea8c03bc9f16fb"),
    2: ("4c8fadaea4d1f62a", 2980, "79bb525e319df615"),
    3: ("49291f1c61a7112a", 2227, "90a71065d101e27c"),
    4: ("86bc8469de2e988a", 821, "dd456d05c109c92e"),
    5: ("84f91ddfa0c95008", 3155, "5e459fdac2853c3a"),
    6: ("bd00886229d779a4", 1789, "cfda9f4dcbe768a3"),
    7: ("5f75ae4106f1be39", 432, "0b39c62eda858213"),
    8: ("3c803146b1dd3657", 611, "45c8f69682f9a859"),
    9: ("b9c99c9ceb713893", 587, "d3348b77614d314e"),
    10: ("6f6132b4ab24e4d7", 3635, "e2e6b66804e14b6a"),
    11: ("34a04a51c37503d8", 274, "f1e6461c994fb664"),
    12: ("19f5c8f3ce08a885", 296, "3c2212c42464f927"),
    13: ("fd5079835ce7c006", 528, "fe1fdafbd6ffddce"),
    14: ("1d45a0445096e0d7", 477, "44aa82ab4b8220d9"),
    15: ("0d20445a8011df16", 881, "937d2a18854753cd"),
    16: ("dd321c0ef9c1f001", 947, "44d14456cca04dd1"),
    17: ("88b4c2ce8e0e322d", 974, "4bf31268ff101bbf"),
    18: ("c0812b53ff3d9f13", 765, "d6faa005c0070593"),
    19: ("2b71536d9a7486d7", 1342, "23a218ee2f812905"),
    20: ("86c7333337908bf9", 765, "74bd51a279eb21d8"),
    21: ("025f41422e660700", 1425, "00c50a38829ed584"),
    22: ("4ed370679b0296d4", 67, "3dff74dab9d8fff8"),
    23: ("ebca8b62d1da5502", 499, "7d67490273796e63"),
    24: ("aca81c63b8064bba", 1396, "12e11520f24c1bc5"),
    25: ("a90418dacfae3744", 376, "a8a9db6a3a6ffbce"),
    26: ("da6f09e4c0c1b1ec", 2053, "53c6816b8da0cf96"),
    27: ("97c9fa954ac3016b", 619, "6aec22b7f0fe47f7"),
    # re-pinned when the dispatch loop began picking again after every
    # resolve: at t=126009 s1.m3.t0's I/O arrives on the tick at which s1.io0
    # finishes s1.m2.t0's I/O job.  io0, holding m2's key, completes that job
    # inside the arrival's dispatch and is left with m3's lower inherited
    # key, so s1.m2 now preempts it at 126009 instead of at 126509, when io0
    # depletes
    28: ("543e01f70bd9ebef", 2028, "0f1bbd63612d38fa"),
    29: ("115b3d9503cd838d", 869, "4f2b081027de366c"),
    30: ("deec820213c5a712", 140, "7b661f4aa49c52bc"),
    31: ("b535687564bbff6b", 606, "5084e92441bd7f65"),
    32: ("be63a3b5d0f3f7fd", 428, "d4644644b606364b"),
    33: ("8f3d56ba0b2d75c1", 1030, "e1a62308c35903c3"),
    34: ("52a8f17e345e4134", 550, "4d67d648a3ca0824"),
    35: ("c8210412894067a2", 2032, "549b7c76dffd1061"),
    36: ("751d9adbfa0e6428", 911, "cb51a6cd6bbbb835"),
    37: ("0d4bbf5e6cac99d0", 943, "df3c005cb3d6f7ca"),
    38: ("738a0b5f43a2fd39", 2763, "ba38b38f4d5390cc"),
    39: ("7f47224f1f0b071e", 933, "8cb4383f952308aa"),
    40: ("205b81df30c67eaf", 631, "26ffb5a054d058fb"),
    41: ("3c8794705ad32737", 419, "59e2041e6ce877d9"),
    42: ("007969696e045b64", 1259, "1c17ac84321b9658"),
    43: ("3722dc7033b08a83", 2391, "0f82d4119041460c"),
    44: ("8f8e42bd0832c828", 223, "4e84a382e9f386d5"),
    45: ("e5cb8324feacdbf6", 3723, "0234af52ebc7ce9e"),
    46: ("994c343fe024e6f0", 2666, "0edc86a09c9856b6"),
    47: ("af38e52f952a6b4c", 978, "8023744d9a93f3e2"),
    48: ("23b1b5bf137d45ad", 4456, "e496adb60761d34f"),
    49: ("0c41f3d815147cb9", 241, "29dd907228c8ce89"),
    50: ("a4e7476530bb7277", 3068, "f8a8b8cbc0764509"),
}

# SHA-256 of ``bound_engine_digest()``: 300 inputs drawn as criterion 3 draws
# them, seeded with BOUND_ENGINE_SEED
BOUND_ENGINE_SEED = 14
BOUND_ENGINE_GOLDEN = "9de27fbd09e1dc100576e0699647a407885072f786d6a7fc3b0627324d22d2fd"


def bound_engine_digest():
    """One line per input: ``comm_breakdown``'s JSON view, the oracle's
    maximum and ``rtt_bound``'s JSON view, hashed together."""
    rng = random.Random(BOUND_ENGINE_SEED)
    h = hashlib.sha256()
    for _ in range(300):
        inp = acceptance._random_input(rng)
        line = [comm_breakdown(inp).as_dict(), str(brute_force_worst_rtt(inp)),
                rtt_bound(inp).as_dict()]
        h.update(json.dumps(line, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def _csv_fnv(sim) -> str:
    return f"{fnv1a64(sim.trace.to_csv().encode()):016x}"


@pytest.mark.parametrize("name", list(TABLE1_GOLDEN))
def test_table1_golden(name):
    kwargs, trace_fnv, rows, intervals, misses = TABLE1_GOLDEN[name]
    res = experiments.run_table1(**kwargs, trace="rows")
    assert _csv_fnv(res.sim) == trace_fnv
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


def test_fig12_point_segments_golden():
    """The same point split by ``exchange_segments``: (start, sigma,
    request, response, observation) of each exchange."""
    c_s, t_s = experiments.FIG12_SENDER
    cfg = experiments.FIG12_CASES["case5"]
    segments = []
    experiments.pingpong_case_max_rtt(
        c_s, t_s, *cfg["receiver"], experiments.FIG12_REQUEST_WORK,
        cfg["response_work"], 12_000, 101_000, 8, keep_segments=segments)
    assert [(e["start"], e["sigma"], e["request"], e["response"], e["observation"])
            for e in segments] == [
        (12000, 12000, 5000, 89000, 0), (118000, 18000, 85000, 133000, 64000),
        (412000, 12000, 5000, 149000, 34000), (612000, 12000, 5000, 179000, 4000),
        (812000, 12000, 5000, 209000, 74000), (1112000, 12000, 5000, 139000, 44000),
        (1312000, 12000, 5000, 169000, 14000), (1512000, 12000, 5000, 199000, 0)]


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_corpus_golden(seed):
    assert fingerprint(run_setup(seed)) == CORPUS_GOLDEN[seed]


def test_bound_engine_golden():
    assert bound_engine_digest() == BOUND_ENGINE_GOLDEN


def _print_current():
    print("TABLE1_GOLDEN = {")
    for name, (kwargs, *_) in TABLE1_GOLDEN.items():
        res = experiments.run_table1(**kwargs, trace="rows")
        print(f"    {name!r}: ({kwargs!r}, {_csv_fnv(res.sim)!r}, "
              f"{len(res.sim.trace.rows)},\n        {eligible_digest(res.sim)!r}, "
              f"{sum(res.summary['deadline_misses'].values())}),")
    print("}\nCORPUS_GOLDEN = {")
    for seed in CORPUS_SEEDS:
        print(f"    {seed}: {fingerprint(run_setup(seed))!r},")
    print("}")
    print(f"BOUND_ENGINE_GOLDEN = {bound_engine_digest()!r}")


if __name__ == "__main__":
    _print_current()
