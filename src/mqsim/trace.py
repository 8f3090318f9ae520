"""Simulation trace: an append-only log of scheduler and protocol activity.

The canonical export is line-oriented CSV with columns
``t_true_us, sandbox, event_kind, entity, detail``; reproducibility checks
hash those exact bytes with 64-bit FNV-1a.  A trace built with
``keep_rows=False`` discards every row, for runs that never read them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from mqsim.errors import RowsNotKept

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF
_HEADER = "t_true_us,sandbox,event_kind,entity,detail"


def _fold(h: int, data: bytes) -> int:
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    return h


def fnv1a64(data: bytes) -> int:
    return _fold(_FNV_OFFSET, data)


class TraceRow(NamedTuple):
    t: int
    sandbox: str
    kind: str
    entity: str
    detail: str

    def csv(self) -> str:
        return f"{self.t},{self.sandbox},{self.kind},{self.entity},{self.detail}"


_new_row = tuple.__new__


def _discard(t, sandbox, kind, entity="", detail=""):
    pass


@dataclass
class SimTrace:
    rows: list = field(default_factory=list)
    keep_rows: bool = True

    def __post_init__(self):
        # bound here rather than tested in ``add``, which runs once per row
        if not self.keep_rows:
            self.add = _discard

    def add(self, t: int, sandbox: str, kind: str, entity: str = "", detail: str = ""):
        self.rows.append(_new_row(TraceRow, (t, sandbox, kind, entity, detail)))

    def _check_kept(self):
        if not self.keep_rows:
            raise RowsNotKept("this trace was built with keep_rows=False")

    def to_csv(self) -> str:
        self._check_kept()
        lines = [_HEADER]
        lines.extend(row.csv() for row in self.rows)
        return "\n".join(lines) + "\n"

    def hash(self) -> int:
        """``fnv1a64(self.to_csv().encode())``, folded row by row.

        XOR with a byte changes only the state's low byte, and the low byte
        of a product depends only on the factors' low bytes.  So folding the
        bytes ``s`` into state ``h`` gives ``h * P**len(s) + g`` (mod 2**64),
        where ``g`` depends only on ``s`` and ``h & 0xFF``.  Each row's
        timestamp and comma are folded byte by byte; the rest of its line is
        one multiply-add, looked up under the low byte and the row's text in
        a memo that lives for this call only.
        """
        self._check_kept()
        prime, mask = _FNV_PRIME, _MASK
        h = _fold(_FNV_OFFSET, f"{_HEADER}\n".encode())
        memo = {}
        for t, sandbox, kind, entity, detail in self.rows:
            for byte in f"{t},".encode():
                h = ((h ^ byte) * prime) & mask
            key = (h & 0xFF, sandbox, kind, entity, detail)
            step = memo.get(key)
            if step is None:
                data = f"{sandbox},{kind},{entity},{detail}\n".encode()
                power = pow(prime, len(data), mask + 1)
                start, h = h, _fold(h, data)
                memo[key] = (power, (h - start * power) & mask)
            else:
                power, g = step
                h = (h * power + g) & mask
        return h

    def __len__(self):
        return len(self.rows)
