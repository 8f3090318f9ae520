"""Per-sandbox scheduling: sporadic-server Main VCPUs, I/O VCPUs with
priority inheritance, rate-monotonic priority order, corrected split-chunk
budget replenishment, and utilization-based admission control.

Each sandbox owns one physical core.  The scheduler always runs the
highest-priority VCPU that has positive budget and a runnable task; budget
consumed in one contiguous execution chunk is replenished one period after
the chunk's activation, with overruns (possible only inside monitor-mode
copy chunks) deferring that replenishment by the overrun amount.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from mqsim.errors import MalformedVcpu, NotIoVcpu, OverConsume

REPL_QUEUE_CAP = 8
_BACKGROUND = (2, 1 << 60, 1 << 30)


# --- workload steps -----------------------------------------------------

@dataclass
class Compute:
    remaining: int


@dataclass
class Send:
    channel: object
    nbytes: int
    remaining: int = -1  # filled at install from the channel profile


@dataclass
class PollWait:
    """Busy-wait on a mailbox: consumes budget until the message lands."""
    channel: object


@dataclass
class SleepUntil:
    t_local: int


@dataclass
class SleepFor:
    dt: int


@dataclass
class BlockIo:
    latency: int
    completion_work: int


@dataclass
class Park:
    """Leave the run queue until something wakes the task explicitly."""


@dataclass
class MonitorChunk:
    """Non-preemptible monitor-mode work; budget is checked only at the
    preemption point when the chunk ends."""
    job: object
    label: str
    remaining: int


class TaskApi:
    """Constructors for workload steps, bound to one task."""

    def __init__(self, task: "Task"):
        self.task = task

    def compute(self, ticks: int) -> Compute:
        return Compute(int(ticks))

    def send(self, channel, nbytes: int) -> Send:
        return Send(channel, int(nbytes))

    def poll_wait(self, channel) -> PollWait:
        return PollWait(channel)

    def sleep_until(self, t_local: int) -> SleepUntil:
        return SleepUntil(int(t_local))

    def sleep_for(self, dt: int) -> SleepFor:
        return SleepFor(int(dt))

    def block_io(self, latency: int, completion_work: int) -> BlockIo:
        return BlockIo(int(latency), int(completion_work))

    def park(self) -> Park:
        return Park()

    def local_now(self) -> int:
        sb = self.task.sandbox
        return sb.clock.to_local(sb.sim.now)

    def try_poll(self, channel):
        """Instant mailbox check without a poll charge (pair with a
        compute(poll_cost) step to model the attempt's cost)."""
        return channel.take(self.task)


class GeneratorDriver:
    """Drives a task from a generator of workload steps."""

    def __init__(self, factory):
        self.factory = factory
        self.gen = None

    def next(self, task, result):
        if self.gen is None:
            self.gen = self.factory(TaskApi(task))
            return next(self.gen)
        return self.gen.send(result)


@dataclass
class PendingWake:
    t_local: int
    event_id: int | None = None


class Task:
    """A schedulable thread context bound to one VCPU and one address space."""

    def __init__(self, sandbox, task_id: str, vcpu: "Vcpu", driver,
                 address_space_id: str = "", demanding: bool = False):
        self.sandbox = sandbox
        self.id = task_id
        self.vcpu = vcpu
        self.driver = driver
        self.address_space_id = address_space_id
        self.demanding = demanding
        self.step = None
        self.pending_result = None
        self.ready = False
        self.done = False
        self.io_blocked = False
        self.pending_wakeups: list[PendingWake] = []
        self.counters: dict[str, int] = {}
        self.rtt_samples: list[tuple[int, int, int]] = []  # (idx, start_local, rtt)
        vcpu.tasks.append(self)

    def count(self, name: str, inc: int = 1):
        self.counters[name] = self.counters.get(name, 0) + inc

    def make_ready(self):
        if not self.ready and not self.done:
            self.ready = True
            self.vcpu.ready_q.append(self)

    def leave_ready(self):
        if self.ready:
            self.ready = False
            try:
                self.vcpu.ready_q.remove(self)
            except ValueError:
                pass


@dataclass
class ReplEntry:
    t_local: int
    amount: int
    event_id: int | None = None


@dataclass
class IoJob:
    task: Task
    remaining: int


class Vcpu:
    """Sporadic-server resource container (Main or I/O)."""

    def __init__(self, sandbox, vcpu_id: str, capacity: int, period: int,
                 kind: str = "main", highest_priority: bool = False):
        if period <= 0 or capacity <= 0 or capacity > period:
            raise MalformedVcpu(f"{vcpu_id}: need 0 < C <= T, got C={capacity} T={period}")
        self.sandbox = sandbox
        self.id = vcpu_id
        self.kind = kind
        self.capacity = int(capacity)
        self.period = int(period)
        self.highest_priority = highest_priority
        self.index = sandbox.next_vcpu_index()
        self.budget = self.capacity
        self.repl: list[ReplEntry] = []
        self.ready_q: deque[Task] = deque()
        self.tasks: list[Task] = []
        self.io_jobs: deque[IoJob] = deque()
        self.inherited: dict[str, tuple] = {}
        self._queue = self.io_jobs if kind == "io" else self.ready_q
        self.migrating = False
        self.min_dispatch_budget = 1
        self.chunk_activation_local: int | None = None
        self.chunk_consumed = 0
        self.total_consumed = 0
        self.repl_posted_total = 0
        self.repl_fired_total = 0
        self.exec_intervals: list[list[int]] = []
        self.eligible_intervals: list[list[int]] = []
        self._eligible_since: int | None = None

    # -- priority ---------------------------------------------------------

    def priority_key(self) -> tuple:
        if self.kind == "io":
            return min(self.inherited.values()) if self.inherited else _BACKGROUND
        return (0 if self.highest_priority else 1, self.period, self.index)

    @property
    def min_dispatch_budget(self) -> int:
        return self._min_dispatch_budget

    @min_dispatch_budget.setter
    def min_dispatch_budget(self, value: int):
        self._min_dispatch_budget = value
        self._dispatch_floor = min(value, self.capacity)

    def eligible(self) -> bool:
        """Not migrating, work queued, and budget at least
        min(min_dispatch_budget, capacity)."""
        return not self.migrating and bool(self._queue) \
            and self.budget >= self._dispatch_floor

    def current_work(self):
        q = self._queue
        return q[0] if q else None

    # -- budget accounting --------------------------------------------------

    def begin_chunk(self, now_local: int):
        if self.chunk_activation_local is None:
            self.chunk_activation_local = now_local
            self.chunk_consumed = 0

    def consume(self, amount: int, now_local: int | None = None,
                allow_overrun: bool = False):
        """Charge execution to the open chunk.  ``now_local`` opens a chunk
        when none is open (the direct-call form of the budget-consumption
        operation)."""
        if amount == 0:
            return
        if self.chunk_activation_local is None:
            if now_local is None:
                raise OverConsume(f"{self.id}: no open execution chunk")
            self.begin_chunk(now_local)
        if amount > self.budget and not allow_overrun:
            raise OverConsume(f"{self.id}: {amount} exceeds budget {self.budget}")
        self.budget -= amount
        self.chunk_consumed += amount
        self.total_consumed += amount

    def close_chunk(self):
        """End the contiguous execution chunk and queue its replenishment at
        activation + T, deferred by any overrun."""
        if self.chunk_activation_local is None:
            return
        activation = self.chunk_activation_local
        consumed = self.chunk_consumed
        self.chunk_activation_local = None
        self.chunk_consumed = 0
        if consumed <= 0:
            return
        overrun = max(0, -self.budget)
        self.queue_replenishment(activation + self.period + overrun, consumed)

    def queue_replenishment(self, t_local: int, amount: int):
        if len(self.repl) >= REPL_QUEUE_CAP:
            a, b = self.repl[0], self.repl[1]
            for e in (a, b):
                if e.event_id is not None:
                    self.sandbox.sim.cancel_event(e.event_id)
            merged = ReplEntry(max(a.t_local, b.t_local), a.amount + b.amount)
            self.repl = [merged] + self.repl[2:]
            self._post_repl_event(merged)
        entry = ReplEntry(t_local, amount)
        self.repl.append(entry)
        self.repl_posted_total += amount
        self._post_repl_event(entry)

    def _post_repl_event(self, entry: ReplEntry):
        if self.migrating:
            entry.event_id = None
            return
        sb = self.sandbox
        fire = max(sb.sim.now, sb.clock.to_true(entry.t_local))
        entry.event_id = sb.sim.post_event(
            fire, "budget-replenishment", sb.id, entry,
            lambda ev, v=self, e=entry: v._on_replenish(e))

    def _on_replenish(self, entry: ReplEntry):
        if entry not in self.repl:
            return
        self.repl.remove(entry)
        self.budget += entry.amount
        self.repl_fired_total += entry.amount
        assert self.budget <= self.capacity, f"{self.id}: budget over capacity"
        sb = self.sandbox
        sb.sim.trace.add(sb.sim.now, sb.id, "replenish", self.id,
                         f"amount={entry.amount};budget={self.budget}")
        sb.touch()

    def pending_event_locals(self) -> list[int]:
        """Local times of pending replenishments and task wakeups (the
        candidate next-event times for migration eligibility)."""
        times = [e.t_local for e in self.repl]
        for t in self.tasks:
            times.extend(w.t_local for w in t.pending_wakeups)
        return times

    # -- bookkeeping for post-hoc checks ------------------------------------

    def record_exec(self, start: int, end: int):
        if end <= start:
            return
        if self.exec_intervals and self.exec_intervals[-1][1] == start:
            self.exec_intervals[-1][1] = end
        else:
            self.exec_intervals.append([start, end])

    def record_eligible(self, flag: bool, t: int):
        if flag and self._eligible_since is None:
            self._eligible_since = t
        elif not flag and self._eligible_since is not None:
            if t > self._eligible_since:
                ivs = self.eligible_intervals
                if ivs and ivs[-1][1] == self._eligible_since:
                    ivs[-1][1] = t
                else:
                    ivs.append([self._eligible_since, t])
            self._eligible_since = None

    def finish_eligible(self, t: int):
        self.record_eligible(False, t)


def consume_budget(vcpu: Vcpu, amount: int, now_local: int):
    """Direct form of budget consumption: charge ``amount`` as one chunk that
    ran at ``now_local`` and queue its replenishment."""
    vcpu.begin_chunk(now_local)
    vcpu.consume(amount, now_local)
    vcpu.close_chunk()


def inherit_priority(io_vcpu: Vcpu, main_vcpu: Vcpu, token: str = "explicit"):
    """I/O VCPUs run completions at the priority of the Main VCPU that issued
    the request; concurrent requests inherit the highest such priority."""
    if io_vcpu.kind != "io":
        raise NotIoVcpu(io_vcpu.id)
    io_vcpu.inherited[token] = main_vcpu.priority_key()


def restore_priority(io_vcpu: Vcpu, token: str = "explicit"):
    if io_vcpu.kind != "io":
        raise NotIoVcpu(io_vcpu.id)
    io_vcpu.inherited.pop(token, None)


# --- admission control ---------------------------------------------------

@dataclass(frozen=True)
class AdmissionVerdict:
    accepted: bool
    utilization_before: Fraction
    utilization_after: Fraction
    bound_used: float
    mode: str


def _liu_layland_ok(util: Fraction, n: int) -> bool:
    # util <= n*(2**(1/n) - 1)  <=>  (util/n + 1)**n <= 2, exact on rationals
    return (util / n + 1) ** n <= 2


def _rta_ok(pairs: list[tuple[int, int]]) -> bool:
    """Exact response-time test under rate-monotonic order (ties keep list
    order, so the candidate should be appended last)."""
    order = sorted(range(len(pairs)), key=lambda i: (pairs[i][1], i))
    for pos, i in enumerate(order):
        c_i, t_i = pairs[i]
        higher = [pairs[j] for j in order[:pos]]
        r = c_i
        while True:
            nxt = c_i + sum(math.ceil(Fraction(r, tj)) * cj for cj, tj in higher)
            if nxt == r:
                break
            r = nxt
            if r > t_i:
                return False
        if r > t_i:
            return False
    return True


def admit(existing: list[tuple], capacity, period, mode: str = "ll") -> AdmissionVerdict:
    """Schedulability test for adding a (C, T) VCPU to a sandbox.

    ``ll`` uses the rate-monotonic utilization bound n(2^(1/n)-1); ``exact``
    runs the response-time iteration (utilization may exceed the bound);
    ``cap`` only requires total utilization <= 1.
    """
    capacity, period = Fraction(capacity), Fraction(period)
    if period <= 0 or capacity <= 0 or capacity > period:
        raise MalformedVcpu(f"candidate C={capacity} T={period}")
    before = sum((Fraction(c) / Fraction(t) for c, t in existing), Fraction(0))
    after = before + capacity / period
    n = len(existing) + 1
    if mode == "ll":
        accepted = _liu_layland_ok(after, n)
        bound = n * (2 ** (1 / n) - 1)
    elif mode == "cap":
        accepted = after <= 1
        bound = 1.0
    elif mode == "exact":
        pairs = [(Fraction(c), Fraction(t)) for c, t in existing]
        pairs.append((capacity, period))
        scale = math.lcm(*(x.denominator for p in pairs for x in p))
        int_pairs = [(int(c * scale), int(t * scale)) for c, t in pairs]
        accepted = after <= 1 and _rta_ok(int_pairs)
        bound = 1.0
    else:
        raise ValueError(f"unknown admission mode {mode!r}")
    return AdmissionVerdict(accepted, before, after, bound, mode)


# --- the sandbox scheduler ------------------------------------------------

class Sandbox:
    """One kernel instance with its own clock, VCPUs, and run queue."""

    def __init__(self, sim, sandbox_id: str, clock=None, admission_mode: str = "ll"):
        from mqsim.clock import SandboxClock
        self.sim = sim
        self.id = sandbox_id
        self.clock = clock or SandboxClock(sandbox_id)
        self.admission_mode = admission_mode
        self.vcpus: dict[str, Vcpu] = {}
        self.tasks: dict[str, Task] = {}
        self.spaces: dict[str, object] = {}
        self.running: Vcpu | None = None
        self.chunk_start_true = 0
        self.monitor_busy = False
        self.blocked_until = 0
        self.pending_ipis: list[tuple[str, object, object]] = []
        self._vcpu_index = 0
        self._advance_token = 0
        self._advance_event: int | None = None
        self._touching = False
        self._retouch = False
        self._unblock_hook = None
        self._by_priority: list[Vcpu] = []  # main VCPUs by static priority key
        self._io_vcpus: list[Vcpu] = []
        sim.sandboxes[sandbox_id] = self

    # -- construction -------------------------------------------------------

    def next_vcpu_index(self) -> int:
        self._vcpu_index += 1
        return self._vcpu_index

    def add_vcpu(self, vcpu_id: str, capacity: int, period: int,
                 kind: str = "main", highest_priority: bool = False) -> Vcpu:
        v = Vcpu(self, vcpu_id, capacity, period, kind, highest_priority)
        self.vcpus[vcpu_id] = v
        self._order_vcpus()
        return v

    def add_task(self, task_id: str, vcpu: Vcpu, program=None, driver=None,
                 address_space_id: str = "", demanding: bool = False,
                 start_ready: bool = True) -> Task:
        drv = driver if driver is not None else GeneratorDriver(program)
        t = Task(self, task_id, vcpu, drv, address_space_id, demanding)
        self.tasks[task_id] = t
        if start_ready:
            t.make_ready()
        return t

    def adopt_vcpu(self, v: Vcpu):
        v.sandbox = self
        v.index = self.next_vcpu_index()
        self.vcpus[v.id] = v
        for t in v.tasks:
            t.sandbox = self
            self.tasks[t.id] = t
        self._order_vcpus()

    def drop_vcpu(self, v: Vcpu):
        self.vcpus.pop(v.id, None)
        for t in v.tasks:
            self.tasks.pop(t.id, None)
        self._order_vcpus()

    def _order_vcpus(self):
        """Cache the dispatch order.  A main VCPU's priority key is static
        (it changes only when ``adopt_vcpu`` re-indexes it), so the mains are
        sorted once; I/O VCPUs inherit keys at run time and are compared on
        each pick.  ``_slot`` is the position in ``vcpus``, which breaks key
        ties as the insertion-order scan always did."""
        for slot, v in enumerate(self.vcpus.values()):
            v._slot = slot
        self._by_priority = sorted((v for v in self.vcpus.values() if v.kind != "io"),
                                   key=Vcpu.priority_key)
        self._io_vcpus = [v for v in self.vcpus.values() if v.kind == "io"]

    def now_local(self) -> int:
        return self.clock.to_local(self.sim.now)

    def admit(self, capacity, period, mode: str | None = None) -> AdmissionVerdict:
        existing = [(v.capacity, v.period) for v in self.vcpus.values()
                    if v.kind == "main" and not v.migrating]
        return admit(existing, capacity, period, mode or self.admission_mode)

    # -- public scheduling ops ----------------------------------------------

    def pick_next(self) -> str | None:
        v = self._pick()
        return v.id if v is not None else None

    def sleep_until(self, task: Task, wake_local: int):
        task.leave_ready()
        self.schedule_wake(task, wake_local)
        self.touch()

    def block_on_io(self, task: Task, latency: int, completion_work: int):
        task.leave_ready()
        task.io_blocked = True
        self.sim.post_event(self.sim.now + latency, "io-completion", self.id,
                            task, lambda ev: self._on_io_arrival(ev.payload, completion_work))
        self.touch()

    def wakeup(self, task: Task):
        if task.vcpu.migrating:
            task.pending_wakeups.append(PendingWake(self.now_local()))
            return
        task.io_blocked = False
        task.make_ready()
        self.sim.trace.add(self.sim.now, self.id, "wakeup", task.id, "")
        self.touch()

    def charge_running(self, cost: int):
        """Instantly charge the running VCPU (timestamp reads, monitor calls)."""
        if cost == 0 or self.running is None:
            return
        self._settle()
        self.running.consume(cost, allow_overrun=True)
        self.touch()

    def kernel_block(self, duration: int):
        """Run kernel-context work with interrupts disabled: nothing is
        scheduled on this sandbox until it ends."""
        self._settle()
        if self.running is not None:
            self._stop_running()
        self.blocked_until = self.sim.now + duration
        self.sim.post_event(self.blocked_until, "kernel-unblock", self.id,
                            None, lambda ev: self._on_unblock())

    def receive_ipi(self, src: str, payload, handler):
        """IPIs are handled in the kernel; while a monitor section is in
        progress or the kernel is busy they queue until the next preemption
        point."""
        if self.monitor_busy or self.blocked_until > self.sim.now:
            self.pending_ipis.append((src, payload, handler))
            self.sim.trace.add(self.sim.now, self.id, "ipi", src, "queued")
            return
        self.sim.trace.add(self.sim.now, self.id, "ipi", src, "delivered")
        if handler is not None:
            handler(self, src, payload)
        self.touch()

    def drain_ipis(self):
        while self.pending_ipis and not self.monitor_busy \
                and self.blocked_until <= self.sim.now:
            src, payload, handler = self.pending_ipis.pop(0)
            self.sim.trace.add(self.sim.now, self.id, "ipi", src, "delivered")
            if handler is not None:
                handler(self, src, payload)

    # -- internals ------------------------------------------------------------

    def schedule_wake(self, task: Task, wake_local: int):
        """Queue a local-time wakeup.  Wakeups of a migrating VCPU stay
        pending (no event) until the migration completes and re-posts them."""
        entry = PendingWake(wake_local)
        task.pending_wakeups.append(entry)
        if task.vcpu.migrating:
            return
        fire = max(self.sim.now, self.clock.to_true(wake_local))
        entry.event_id = self.sim.post_event(
            fire, "task-wakeup", self.id, task,
            lambda ev: self._on_wakeup(task, entry))

    def _on_wakeup(self, task: Task, entry: PendingWake):
        if entry not in task.pending_wakeups:
            return
        if task.vcpu.migrating:
            entry.event_id = None
            return
        task.pending_wakeups.remove(entry)
        task.make_ready()
        self.sim.trace.add(self.sim.now, self.id, "wakeup", task.id, "")
        self.touch()

    def _on_io_arrival(self, task: Task, completion_work: int):
        if not self._io_vcpus:
            task.io_blocked = False
            task.make_ready()
            self.sim.trace.add(self.sim.now, self.id, "io_done", task.id, "direct")
            self.touch()
            return
        io_vcpu = self._io_vcpus[0]
        io_vcpu.io_jobs.append(IoJob(task, completion_work))
        inherit_priority(io_vcpu, task.vcpu, token=task.id)
        self.touch()

    def _on_unblock(self):
        self.drain_ipis()
        hook = self._unblock_hook
        if hook is not None:
            self._unblock_hook = None
            hook()
        self.touch()

    def _pick(self) -> Vcpu | None:
        """The eligible VCPU with the smallest priority key, ties going to
        the earlier one in ``vcpus``."""
        best = next((v for v in self._by_priority if v.eligible()), None)
        if not self._io_vcpus:
            return best
        best_key = (best.priority_key(), best._slot) if best is not None else None
        for v in self._io_vcpus:
            if v.eligible():
                key = (v.priority_key(), v._slot)
                if best_key is None or key < best_key:
                    best, best_key = v, key
        return best

    def touch(self):
        if self._touching:
            self._retouch = True
            return
        self._touching = True
        try:
            while True:
                self._retouch = False
                self._settle()
                self._schedule()
                self._refresh_eligibility()
                if not self._retouch:
                    break
        finally:
            self._touching = False

    def _refresh_eligibility(self):
        """Record eligibility changes at ``now``.  Once per touch is enough:
        every refresh of a touch sees the same ``now``, and ``record_eligible``
        keeps only the last flag at a tick (zero-length intervals are dropped,
        intervals meeting at a tick are merged)."""
        t = self.sim.now
        for v in self.vcpus.values():
            v.record_eligible(v.eligible(), t)

    def _settle(self):
        if self.running is None:
            self.chunk_start_true = self.sim.now
            return
        dt = self.sim.now - self.chunk_start_true
        if dt == 0:
            return
        v = self.running
        work = v.current_work()
        allow = isinstance(getattr(work, "step", None), MonitorChunk)
        v.consume(dt, allow_overrun=allow)
        v.record_exec(self.chunk_start_true, self.sim.now)
        self.chunk_start_true = self.sim.now
        if isinstance(work, IoJob):
            work.remaining -= dt
        elif work is not None and work.step is not None:
            st = work.step
            if isinstance(st, (Compute, Send, MonitorChunk)):
                st.remaining -= dt
                assert st.remaining >= 0

    def _schedule(self):
        guard = 0
        while True:
            guard += 1
            if guard > 1000:
                raise RuntimeError("scheduler did not settle")
            blocked = self.blocked_until > self.sim.now
            best = None if blocked else self._pick()
            if best is self.running:
                if best is None:
                    self._cancel_advance()
                    return
                if not self._resolve_instant(best):
                    self._stop_running()
                    continue
                if self._retouch:
                    return
                self._arm_advance(best)
                return
            if self.running is not None:
                self._stop_running()
            if best is None:
                self._cancel_advance()
                return
            self._start_running(best)
            if not self._resolve_instant(best):
                self._stop_running()
                continue
            if self._retouch:
                return
            if self._pick() is not best:
                continue
            self._arm_advance(best)
            return

    def _start_running(self, v: Vcpu):
        self.running = v
        self.chunk_start_true = self.sim.now
        v.begin_chunk(self.now_local())
        work = v.current_work()
        entity = work.id if isinstance(work, Task) else (
            work.task.id if isinstance(work, IoJob) else "")
        self.sim.trace.add(self.sim.now, self.id, "ctx_switch", v.id,
                           f"task={entity};budget={v.budget}")

    def _stop_running(self):
        v = self.running
        if v is None:
            return
        self._settle()
        self.running = None
        self._cancel_advance()
        depleted = v.budget <= 0
        v.close_chunk()
        if depleted:
            self.sim.trace.add(self.sim.now, self.id, "deplete", v.id, "")
        self.monitor_busy = False

    def _cancel_advance(self):
        if self._advance_event is not None:
            self.sim.cancel_event(self._advance_event)
            self._advance_event = None

    def _arm_advance(self, v: Vcpu):
        self._cancel_advance()
        work = v.current_work()
        if isinstance(work, IoJob):
            dur = min(v.budget, work.remaining)
        else:
            st = work.step
            if isinstance(st, MonitorChunk):
                self.monitor_busy = True
                dur = st.remaining
            elif isinstance(st, (Compute, Send)):
                self.monitor_busy = False
                dur = min(v.budget, st.remaining)
            else:  # PollWait: budget-bound busy wait
                self.monitor_busy = False
                dur = v.budget
        assert dur > 0
        self._advance_token += 1
        token = self._advance_token
        self._advance_event = self.sim.post_event(
            self.sim.now + dur, "advance", self.id, token,
            lambda ev: self._on_advance(token))

    def _on_advance(self, token: int):
        if token != self._advance_token or self.running is None:
            return
        self._advance_event = None
        self._settle()
        v = self.running
        work = v.current_work()
        if isinstance(work, IoJob):
            if work.remaining == 0:
                self._complete_io(v)
        elif work is not None and work.step is not None:
            st = work.step
            if isinstance(st, (Compute, Send, MonitorChunk)) and st.remaining == 0:
                self._complete_step(v)
        if self.running is v and v.budget <= 0:
            work = v.current_work()
            in_monitor = isinstance(getattr(work, "step", None), MonitorChunk)
            if not in_monitor:
                self._stop_running()
        self.touch()

    def _complete_io(self, v: Vcpu):
        job = v.io_jobs.popleft()
        v.inherited.pop(job.task.id, None)
        job.task.io_blocked = False
        job.task.make_ready()
        self.sim.trace.add(self.sim.now, self.id, "io_done", job.task.id, "")

    def _complete_step(self, v: Vcpu):
        task = v.current_work()
        st = task.step
        task.step = None
        if isinstance(st, Send):
            st.channel.finish_send(task, self.sim.now, st.nbytes)
        elif isinstance(st, MonitorChunk):
            self.monitor_busy = False
            st.job.engine.on_chunk_done(task, st)
        else:
            task.pending_result = None

    def _resolve_instant(self, v: Vcpu) -> bool:
        """Complete all zero-duration work for the VCPU about to run; returns
        whether it still has dispatchable demand."""
        guard = 0
        while True:
            guard += 1
            if guard > 100000:
                raise RuntimeError("instant-step resolution did not settle")
            work = v.current_work()
            if work is None:
                return False
            if isinstance(work, IoJob):
                if work.remaining == 0:
                    self._complete_io(v)
                    continue
                return True
            task = work
            if task.step is None:
                self._install_next(task)
                continue
            st = task.step
            if isinstance(st, PollWait):
                msg = st.channel.take(task)
                if msg is not None:
                    task.step = None
                    task.pending_result = msg
                    continue
                return True
            if isinstance(st, (Compute, Send, MonitorChunk)):
                if st.remaining == 0:
                    self._complete_step(v)
                    continue
                return True
            raise AssertionError(f"unexpected installed step {st}")

    def _install_next(self, task: Task):
        try:
            st = task.driver.next(task, task.pending_result)
        except StopIteration:
            task.done = True
            task.leave_ready()
            return
        task.pending_result = None
        if isinstance(st, Compute):
            task.step = st
        elif isinstance(st, Send):
            st.remaining = st.channel.send_work(task, st.nbytes)
            task.step = st
        elif isinstance(st, PollWait):
            task.step = st
        elif isinstance(st, MonitorChunk):
            task.step = st
        elif isinstance(st, SleepUntil):
            task.leave_ready()
            self.schedule_wake(task, st.t_local)
        elif isinstance(st, SleepFor):
            task.leave_ready()
            self.schedule_wake(task, self.now_local() + st.dt)
        elif isinstance(st, BlockIo):
            task.leave_ready()
            task.io_blocked = True
            self.sim.post_event(
                self.sim.now + st.latency, "io-completion", self.id, task,
                lambda ev, w=st.completion_work: self._on_io_arrival(ev.payload, w))
        elif isinstance(st, Park):
            task.leave_ready()
        else:
            raise AssertionError(f"unknown step {st}")
