"""Analytic engine: exact worst-case round-trip bounds (the paper variant and
the sound segment-wise bound), the migration-cost criterion, clock-skew
adjustment, and a brute-force sweep oracle."""

from mqsim.bounds.formulas import (
    CommBoundBreakdown,
    CommBoundInput,
    RttBound,
    RttSegments,
    clock_adjustment,
    comm_breakdown,
    migration_bound,
    observation_delay,
    rtt_bound,
    rtt_segments,
    step_f,
)
from mqsim.bounds.oracle import brute_force_worst_rtt, sweep_backend_name

__all__ = [
    "CommBoundBreakdown",
    "CommBoundInput",
    "RttBound",
    "RttSegments",
    "brute_force_worst_rtt",
    "clock_adjustment",
    "comm_breakdown",
    "migration_bound",
    "observation_delay",
    "rtt_bound",
    "rtt_segments",
    "step_f",
    "sweep_backend_name",
]
