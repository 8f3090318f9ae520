"""Simulation trace: an append-only log of scheduler and protocol activity.

The canonical export is line-oriented CSV with columns
``t_true_us, sandbox, event_kind, entity, detail``; reproducibility checks
hash those exact bytes with 64-bit BLAKE2b.  ``add`` formats each row's
line once and feeds the hasher ``HASH_BLOCK_ROWS`` lines at a time, so a
trace holds at most one block of lines whatever the length of the run.

A trace's mode says what it keeps:

- ``"discard"``: nothing; for runs that never read the trace;
- ``"hash"``: the running hash and the row count, not the rows;
- ``"rows"``: the hash and every row, for exports and row readers.
"""

from __future__ import annotations

from hashlib import blake2b
from typing import NamedTuple

from mqsim.errors import RowsNotKept, ValidationError

HASH_BLOCK_ROWS = 1024
TRACE_MODES = ("discard", "hash", "rows")
_HEADER = "t_true_us,sandbox,event_kind,entity,detail\n"


class TraceRow(NamedTuple):
    t: int
    sandbox: str
    kind: str
    entity: str
    detail: str


_new_row = tuple.__new__


def _line(t, sandbox, kind, entity, detail) -> str:
    """The CSV line of one row, ending in a newline."""
    return f"{t},{sandbox},{kind},{entity},{detail}\n"


def _discard(t, sandbox, kind, entity="", detail=""):
    pass


class SimTrace:
    def __init__(self, mode: str = "hash"):
        if mode not in TRACE_MODES:
            raise ValidationError(f"trace mode must be one of {TRACE_MODES}, "
                                  f"got {mode!r}")
        self.mode = mode
        self.rows: list = []
        self._hasher = blake2b(_HEADER.encode(), digest_size=8)
        self._pending: list[str] = []  # lines not yet fed to the hasher
        self._hashed = 0
        # bound here rather than tested in ``add``, which runs once per row
        if mode == "discard":
            self.add = _discard

    def add(self, t: int, sandbox: str, kind: str, entity: str = "", detail: str = ""):
        if self.mode == "rows":
            self.rows.append(_new_row(TraceRow, (t, sandbox, kind, entity, detail)))
        pending = self._pending
        pending.append(_line(t, sandbox, kind, entity, detail))
        if len(pending) == HASH_BLOCK_ROWS:
            self._hasher.update("".join(pending).encode())
            self._hashed += HASH_BLOCK_ROWS
            pending.clear()

    @property
    def row_count(self) -> int:
        """Rows added so far (0 when the trace discards them)."""
        return self._hashed + len(self._pending)

    def _refuse_unless(self, *modes):
        if self.mode not in modes:
            raise RowsNotKept(f"this trace was built with mode {self.mode!r}")

    def to_csv(self) -> str:
        self._refuse_unless("rows")
        return _HEADER + "".join([_line(*row) for row in self.rows])

    def hash(self) -> int:
        """BLAKE2b-64 of the CSV bytes of the rows added so far, as a
        big-endian int; callable at any point and any number of times."""
        self._refuse_unless("hash", "rows")
        h = self._hasher.copy()
        if self._pending:
            h.update("".join(self._pending).encode())
        return int.from_bytes(h.digest(), "big")
