"""Simulation trace: an append-only log of scheduler and protocol activity.

The canonical export is line-oriented CSV with columns
``t_true_us, sandbox, event_kind, entity, detail``; reproducibility checks
hash those exact bytes with 64-bit FNV-1a.
"""

from __future__ import annotations

from dataclasses import dataclass, field

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


@dataclass
class TraceRow:
    t: int
    sandbox: str
    kind: str
    entity: str
    detail: str

    def csv(self) -> str:
        return f"{self.t},{self.sandbox},{self.kind},{self.entity},{self.detail}"


@dataclass
class SimTrace:
    rows: list = field(default_factory=list)

    def add(self, t: int, sandbox: str, kind: str, entity: str = "", detail: str = ""):
        self.rows.append(TraceRow(t, sandbox, kind, entity, detail))

    def to_csv(self) -> str:
        lines = ["t_true_us,sandbox,event_kind,entity,detail"]
        lines.extend(row.csv() for row in self.rows)
        return "\n".join(lines) + "\n"

    def hash(self) -> int:
        return fnv1a64(self.to_csv().encode())

    def __len__(self):
        return len(self.rows)
