"""Deterministic discrete-event core: a single true-time event queue with a
FIFO tie-break, modeled fixed costs, timestamp-counter reads, and IPIs.

A ``Simulator`` instance is single-threaded and self-contained; running the
same inputs twice produces byte-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from operator import itemgetter

from mqsim.errors import PastTimestamp, SelfIpi, UnknownSandbox, ValidationError
from mqsim.trace import SimTrace


@dataclass(frozen=True)
class CostModel:
    """Fixed modeled costs, in ticks (default 1 tick = 1 microsecond)."""
    rdtsc_cost: int = 1
    ipi_cost: int = 100
    vmexit_cost: int = 150
    vmentry_cost: int = 150
    page_copy_nocache: int = 11      # per page, caches disabled (calibration)
    page_copy_cache: int = 1         # per page, caches enabled
    tss_copy_cost: int = 306         # per thread context record
    pde_walk_cost: int = 1           # per page-directory entry
    preemption_point_cost: int = 5   # bookkeeping at each preemption point
    migration_sched_overhead: int = 200  # per-period scheduler work on resume
    admission_cost: int = 50         # destination-side admission test

    def __post_init__(self):
        for name, val in self.__dict__.items():
            if val < 0:
                raise ValidationError(f"{name} must be >= 0")
        if self.page_copy_nocache < self.page_copy_cache:
            raise ValidationError("no-cache page copy cannot be cheaper than cached")

    @property
    def resume_overhead(self) -> int:
        """One VM-Exit/VM-Entry pair plus scheduler work, charged once per
        period in which the migration thread runs."""
        return self.vmexit_cost + self.vmentry_cost + self.migration_sched_overhead


class SimEvent(tuple):
    """A posted event.  It is its own heap entry: the tuple
    ``(fire_at, event_id, kind, sandbox_id, payload, handler)`` orders by
    fire time, then by id, and ids count up in posting order."""
    __slots__ = ()
    fire_at = property(itemgetter(0))
    event_id = property(itemgetter(1))
    kind = property(itemgetter(2))
    sandbox_id = property(itemgetter(3))
    payload = property(itemgetter(4))
    handler = property(itemgetter(5))


_new_event = tuple.__new__


class Simulator:
    """Global event queue plus the sandbox registry.  ``trace`` is the mode
    of its trace: "discard", "hash" or "rows" (see ``SimTrace``)."""

    def __init__(self, cost_model: CostModel | None = None, trace: str = "hash"):
        self.now = 0
        self.cost = cost_model or CostModel()
        self.trace = SimTrace(trace)
        self.sandboxes: dict[str, object] = {}
        self.channels: dict[tuple, object] = {}
        self._heap: list[SimEvent] = []
        self._next_id = 1
        self._live: set[int] = set()  # ids posted and neither fired nor cancelled

    # -- event queue -------------------------------------------------------

    def post_event(self, fire_at: int, kind: str, sandbox_id: str = "",
                   payload=None, handler=None) -> int:
        """Enqueue an event; events with equal fire times dispatch in posting
        order.  Cancellable until fired.  ``handler`` is called with the
        ``SimEvent``."""
        if fire_at < self.now:
            raise PastTimestamp(f"fire_at {fire_at} is before now {self.now}")
        event_id = self._next_id
        self._next_id = event_id + 1
        heappush(self._heap, _new_event(
            SimEvent, (fire_at, event_id, kind, sandbox_id, payload, handler)))
        self._live.add(event_id)
        return event_id

    def cancel_event(self, event_id: int) -> bool:
        if event_id in self._live:
            self._live.remove(event_id)
            return True
        return False

    def run_until(self, t_true: int, stop=None) -> SimTrace:
        """Dispatch every pending event with fire_at <= t_true, in
        (fire_at, event_id) order, then advance the clock to t_true.

        ``stop`` is checked after each dispatched event; when it returns
        true the run ends there, with ``now`` at that event's time, and a
        later ``run_until`` dispatches the events still pending."""
        if t_true < self.now:
            raise PastTimestamp(f"cannot run backwards to {t_true}")
        heap, live = self._heap, self._live
        while heap and heap[0][0] <= t_true:
            ev = heappop(heap)
            if ev[1] not in live:
                continue
            live.remove(ev[1])
            self.now = ev[0]
            if ev[5] is not None:
                ev[5](ev)
            if stop is not None and stop():
                return self.trace
        self.now = t_true
        return self.trace

    # -- sandboxes ---------------------------------------------------------

    def sandbox(self, sandbox_id: str):
        try:
            return self.sandboxes[sandbox_id]
        except KeyError:
            raise UnknownSandbox(sandbox_id) from None

    def read_tsc(self, sandbox_id: str) -> int:
        """Local timestamp of a sandbox; charges the read to whatever VCPU is
        currently running there (kernel-context reads are free)."""
        sb = self.sandbox(sandbox_id)
        value = sb.clock.to_local(self.now)
        sb.charge_running(self.cost.rdtsc_cost)
        return value

    def send_ipi(self, src: str, dst: str, payload=None, handler=None) -> int:
        """Schedule an inter-processor interrupt.  Delivery happens a fixed
        ipi_cost later in the destination kernel; a destination inside a
        monitor-mode section sees it at the next preemption point."""
        if src == dst:
            raise SelfIpi(src)
        self.sandbox(src)
        dest = self.sandbox(dst)

        return self.post_event(self.now + self.cost.ipi_cost, "ipi-delivery",
                               dst, payload,
                               lambda ev: dest.receive_ipi(src, payload, handler))
