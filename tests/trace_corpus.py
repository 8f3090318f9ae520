"""Seeded random two-sandbox setups whose traces pin scheduler behaviour.

Each seed builds two sandboxes with 1-4 main VCPUs and 0-2 I/O VCPUs,
running busy loops, I/O cycles and periodic loggers, and in about half of
the setups a ping-pong exchange between the sandboxes.  Costs and periods
are multiples of 500 us, so that many events fall on the same tick and the
dispatch order of simultaneous events is exercised.  ``fingerprint`` gives
the FNV-1a hash of the trace's CSV bytes, the row count and a digest of
every VCPU's eligible intervals; ``tests/test_golden.py`` pins them for
``CORPUS_SEEDS``.
"""

from __future__ import annotations

import hashlib
import random

from mqsim.clock import SandboxClock
from mqsim.core import Simulator
from mqsim.ipc import ExchangeProfile, establish_channel
from mqsim.metrics import finish_run
from mqsim.sched import Sandbox
from mqsim.workloads import (busy_loop, io_cycle, periodic_logger,
                             pingpong_receiver, pingpong_sender)

CORPUS_SEEDS = range(1, 51)
HORIZON_US = 400_000


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a, one byte at a time: the tests pin trace bytes with it."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) % 2**64
    return h


def blake2b64(data: bytes) -> int:
    """``SimTrace.hash``'s definition over the CSV bytes."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def _steps(rng, lo: int, hi: int) -> int:
    """A multiple of 500 us in [lo, hi] steps of 500."""
    return 500 * rng.randint(lo, hi)


def _program(rng):
    kind = rng.choice(("busy", "busy", "io_cycle", "logger"))
    if kind == "busy":
        return busy_loop(_steps(rng, 1, 8))
    if kind == "io_cycle":
        return io_cycle(_steps(rng, 1, 4), _steps(rng, 1, 10),
                        rng.choice((0, 100, 500)))
    return periodic_logger(_steps(rng, 20, 100), _steps(rng, 1, 2))


def build_setup(seed: int, trace: str = "rows") -> Simulator:
    """The setup of one seed, built and touched at t=0, not yet run, with
    trace mode ``trace``."""
    rng = random.Random(seed)
    sim = Simulator(trace=trace)
    sandboxes = []
    for name in ("s1", "s2"):
        offset = rng.choice((0, 0, _steps(rng, -4, 4)))
        drift = rng.choice((0, 0, rng.randint(-100, 100)))
        sb = Sandbox(sim, name, SandboxClock(offset, drift))
        for i in range(rng.randint(0, 2)):
            sb.add_vcpu(f"{name}.io{i}", _steps(rng, 1, 3), _steps(rng, 10, 40),
                        kind="io")
        for i in range(rng.randint(1, 4)):
            period = _steps(rng, 10, 100)
            v = sb.add_vcpu(f"{name}.m{i}", _steps(rng, 1, period // 1000),
                            period)
            for j in range(1 if rng.random() < 0.75 else 2):
                sb.add_task(f"{v.id}.t{j}", v, program=_program(rng))
        sandboxes.append(sb)
    if rng.random() < 0.5:
        wait = rng.choice(("busy", "sleep"))
        profile = ExchangeProfile(request_work=rng.choice((100, 500, 1000)),
                                  response_work=rng.choice((0, 100, 500)),
                                  k=rng.choice((0, 500)), poll_interval=500)
        ch = establish_channel(sim, "s1", "s2", profile)
        s1, s2 = sandboxes
        vs = s1.add_vcpu("s1.snd", _steps(rng, 2, 10), _steps(rng, 20, 60))
        vr = s2.add_vcpu("s2.rcv", _steps(rng, 2, 10), _steps(rng, 20, 60))
        snd = s1.add_task("s1.snd", vs, program=pingpong_sender(
            ch, busy_wait=rng.choice((0, 500, 1500)), wait=wait))
        rcv = s2.add_task("s2.rcv", vr, program=pingpong_receiver(ch, wait=wait))
        ch.bind(snd, rcv)
    for sb in sandboxes:
        sb.touch()
    return sim


def run_setup(seed: int, trace: str = "rows") -> Simulator:
    sim = build_setup(seed, trace)
    sim.run_until(HORIZON_US)
    finish_run(sim)
    return sim


def eligible_digest(sim) -> str:
    """SHA-256 over every VCPU's eligible intervals, in VCPU id order."""
    h = hashlib.sha256()
    vcpus = sorted((v for sb in sim.sandboxes.values() for v in sb.vcpus.values()),
                   key=lambda v: v.id)
    for v in vcpus:
        h.update(f"{v.id}:{v.eligible_intervals}\n".encode())
    return h.hexdigest()


def fingerprint(sim) -> tuple[str, int, str]:
    """(FNV-1a of the trace CSV, trace rows, first 16 hex digits of the
    eligible digest)."""
    return (f"{fnv1a64(sim.trace.to_csv().encode()):016x}", len(sim.trace.rows),
            eligible_digest(sim)[:16])
