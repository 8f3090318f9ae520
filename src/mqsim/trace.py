"""Simulation trace: an append-only log of scheduler and protocol activity.

The canonical export is line-oriented CSV with columns
``t_true_us, sandbox, event_kind, entity, detail``; reproducibility checks
hash those exact bytes with 64-bit BLAKE2b, fed ``HASH_BLOCK_ROWS`` lines at
a time, so the whole CSV is never held.  A trace built with
``keep_rows=False`` discards every row, for runs that never read them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import blake2b
from typing import NamedTuple

from mqsim.errors import RowsNotKept

HASH_BLOCK_ROWS = 1024
_HEADER = "t_true_us,sandbox,event_kind,entity,detail\n"


class TraceRow(NamedTuple):
    t: int
    sandbox: str
    kind: str
    entity: str
    detail: str


_new_row = tuple.__new__


def _lines(rows) -> str:
    """The CSV lines of ``rows``, each ending in a newline."""
    return "".join([f"{t},{sandbox},{kind},{entity},{detail}\n"
                    for t, sandbox, kind, entity, detail in rows])


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
        return _HEADER + _lines(self.rows)

    def hash(self) -> int:
        """BLAKE2b-64 of ``self.to_csv().encode()``, as a big-endian int."""
        self._check_kept()
        h = blake2b(_HEADER.encode(), digest_size=8)
        rows = self.rows
        for i in range(0, len(rows), HASH_BLOCK_ROWS):
            h.update(_lines(rows[i:i + HASH_BLOCK_ROWS]).encode())
        return int.from_bytes(h.digest(), "big")
