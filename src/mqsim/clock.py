"""Per-sandbox clocks: true simulation time plus a constant offset and a
linear parts-per-million drift.  Sandboxes schedule their own events in local
time; nothing in the system assumes clocks agree."""

from __future__ import annotations

from dataclasses import dataclass

from mqsim.errors import ValidationError


@dataclass(frozen=True)
class SandboxClock:
    """local(t) = t + offset + floor(t * drift_ppm / 1e6), strictly monotone."""
    offset: int = 0
    drift_ppm: int = 0

    def __post_init__(self):
        if (type(self.offset) is not int or type(self.drift_ppm) is not int
                or self.drift_ppm <= -1_000_000):
            raise ValidationError(f"need ints, drift_ppm > -1e6 to keep time "
                                  f"monotone; got {self.offset!r}, {self.drift_ppm!r}")

    def to_local(self, t_true: int) -> int:
        return t_true + self.offset + (t_true * self.drift_ppm) // 1_000_000

    def to_true(self, t_local: int) -> int:
        """Earliest true time whose local reading is >= t_local.

        Exact inverse when drift_ppm == 0; otherwise found by a guarded
        closed-form guess plus a short walk.
        """
        if self.drift_ppm == 0:
            return t_local - self.offset
        t = ((t_local - self.offset) * 1_000_000) // (1_000_000 + self.drift_ppm)
        while self.to_local(t) >= t_local:
            t -= 1
        while self.to_local(t) < t_local:
            t += 1
        return t
