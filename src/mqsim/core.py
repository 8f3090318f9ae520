"""Deterministic discrete-event core: a single true-time event queue with a
FIFO tie-break, modeled fixed costs, timestamp-counter reads, and IPIs.

A ``Simulator`` instance is single-threaded and self-contained; running the
same inputs twice produces byte-identical traces.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from mqsim.clock import SandboxClock
from mqsim.errors import PastTimestamp, SelfIpi, UnknownSandbox
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
    poll_cost: int = 10              # one mailbox poll attempt

    def __post_init__(self):
        for name, val in self.__dict__.items():
            if val < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.page_copy_nocache < self.page_copy_cache:
            raise ValueError("no-cache page copy cannot be cheaper than cached")

    @property
    def resume_overhead(self) -> int:
        """One VM-Exit/VM-Entry pair plus scheduler work, charged once per
        period in which the migration thread runs."""
        return self.vmexit_cost + self.vmentry_cost + self.migration_sched_overhead


@dataclass
class SimEvent:
    event_id: int
    fire_at: int
    seq: int
    kind: str
    sandbox_id: str = ""
    payload: object = None
    handler: object = None
    cancelled: bool = field(default=False, compare=False)


class Simulator:
    """Global event queue plus the sandbox registry."""

    def __init__(self, cost_model: CostModel | None = None):
        self.now = 0
        self.cost = cost_model or CostModel()
        self.trace = SimTrace()
        self.sandboxes: dict[str, object] = {}
        self.channels: dict[tuple, object] = {}
        self._heap: list[tuple[int, int, SimEvent]] = []
        self._seq = 0
        self._next_id = 1
        self._live: dict[int, SimEvent] = {}

    # -- event queue -------------------------------------------------------

    def post_event(self, fire_at: int, kind: str, sandbox_id: str = "",
                   payload=None, handler=None) -> int:
        """Enqueue an event; events with equal fire times dispatch in posting
        order.  Cancellable until fired."""
        if fire_at < self.now:
            raise PastTimestamp(f"fire_at {fire_at} is before now {self.now}")
        ev = SimEvent(self._next_id, fire_at, self._seq, kind, sandbox_id,
                      payload, handler)
        self._next_id += 1
        self._seq += 1
        heapq.heappush(self._heap, (fire_at, ev.seq, ev))
        self._live[ev.event_id] = ev
        return ev.event_id

    def cancel_event(self, event_id: int) -> bool:
        ev = self._live.pop(event_id, None)
        if ev is None:
            return False
        ev.cancelled = True
        return True

    def run_until(self, t_true: int, stop=None) -> SimTrace:
        """Dispatch every pending event with fire_at <= t_true, in
        (fire_at, seq) order, then advance the clock to t_true.

        ``stop`` is checked after each dispatched event; when it returns
        true the run ends there, with ``now`` at that event's time, and a
        later ``run_until`` dispatches the events still pending."""
        if t_true < self.now:
            raise PastTimestamp(f"cannot run backwards to {t_true}")
        while self._heap and self._heap[0][0] <= t_true:
            _, _, ev = heapq.heappop(self._heap)
            if ev.cancelled:
                continue
            self._live.pop(ev.event_id, None)
            self.now = ev.fire_at
            if ev.handler is not None:
                ev.handler(ev)
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

        def deliver(ev):
            dest.receive_ipi(src, ev.payload, handler)

        return self.post_event(self.now + self.cost.ipi_cost, "ipi-delivery",
                               dst, payload, deliver)

    def new_clock(self, sandbox_id: str, offset: int = 0, drift_ppm: int = 0) -> SandboxClock:
        return SandboxClock(sandbox_id, offset, drift_ppm)
