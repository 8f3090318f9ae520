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

from mqsim.clock import SandboxClock
from mqsim.errors import MalformedVcpu, OverConsume, SchedulerFault, ValidationError

REPL_QUEUE_CAP = 8
VCPU_KINDS = ("main", "io")
ADMISSION_MODES = ("ll", "exact")
_BACKGROUND = (2, 1 << 60, 1 << 30)


# --- workload steps -----------------------------------------------------

@dataclass
class Compute:
    """``remaining`` ticks of work, then ``done(task)`` if given.  A
    ``monitor`` step is non-preemptible monitor-mode work: budget is checked
    only at the preemption point when it ends."""
    remaining: int
    done: object = None
    monitor: bool = False


@dataclass
class PollWait:
    """Busy-wait on a mailbox: consumes budget until the message lands."""
    channel: object


@dataclass
class SleepUntil:
    t_local: int


@dataclass
class BlockIo:
    latency: int
    completion_work: int


@dataclass
class Park:
    """Leave the run queue until something wakes the task explicitly."""


class TaskApi:
    """Constructors for workload steps, bound to one task.  Every tick count
    they take must be a non-negative ``int``, and every local time an
    ``int``: a clock behind true time reads negative local times."""

    def __init__(self, task: "Task"):
        self.task = task

    def _ticks(self, step: str, name: str, value, signed: bool = False) -> int:
        if type(value) is not int or (value < 0 and not signed):
            kind = "an int" if signed else "a non-negative int"
            raise ValidationError(f"task {self.task.id}: {step} {name} must be "
                                  f"{kind}, got {value!r}")
        return value

    def compute(self, ticks: int) -> Compute:
        return Compute(self._ticks("compute", "ticks", ticks))

    def send(self, channel) -> Compute:
        """Raises ``MailboxFull`` if the peer has not taken the last message."""
        return Compute(channel.send_work(self.task), channel.finish_send)

    def poll_wait(self, channel) -> PollWait:
        return PollWait(channel)

    def sleep_until(self, t_local: int) -> SleepUntil:
        return SleepUntil(self._ticks("sleep_until", "t_local", t_local, signed=True))

    def sleep_for(self, dt: int) -> SleepUntil:
        """Sleep ``dt`` local ticks from now (the step's install instant)."""
        return SleepUntil(self.local_now() + self._ticks("sleep_for", "dt", dt))

    def block_io(self, latency: int, completion_work: int) -> BlockIo:
        return BlockIo(self._ticks("block_io", "latency", latency),
                       self._ticks("block_io", "completion_work", completion_work))

    def park(self) -> Park:
        return Park()

    def local_now(self) -> int:
        sb = self.task.sandbox
        return sb.clock.to_local(sb.sim.now)


@dataclass
class LocalTimer:
    """An event due at local time ``t_local``: a VCPU's budget replenishment
    of ``amount`` or a task's wakeup.  ``fire`` is its event handler;
    ``event`` is the posted event's handle, None while the timer is held
    unposted (see ``Sandbox.post_timer``)."""
    t_local: int
    fire: object
    amount: int = 0
    event: list | None = None


class Task:
    """A schedulable thread context bound to one VCPU and one address space.
    ``program(api)`` returns the generator of its workload steps; it is
    called at the first install, with a ``TaskApi`` bound to the task."""

    def __init__(self, sandbox, task_id: str, vcpu: "Vcpu", program):
        self.sandbox = sandbox
        self.id = task_id
        self.vcpu = vcpu
        self.program = program
        self.steps = None
        self.step = None
        self.ready = False
        self.done = False
        self.io_blocked = False
        self.pending_wakeups: list[LocalTimer] = []
        self.counters: dict[str, int] = {}
        self.rtt_samples: list[tuple[int, int, int]] = []  # (idx, start_local, rtt)
        vcpu.tasks.append(self)

    def count(self, name: str):
        self.counters[name] = self.counters.get(name, 0) + 1

    def make_ready(self):
        if not self.ready and not self.done:
            self.ready = True
            self.vcpu.ready_q.append(self)
            self.vcpu.note_eligibility()

    def leave_ready(self):
        if self.ready:
            self.ready = False
            self.vcpu.ready_q.remove(self)
            self.vcpu.note_eligibility()

    def _on_wakeup(self, timer: LocalTimer):
        self.pending_wakeups.remove(timer)
        self.make_ready()
        sb = self.sandbox
        sb.sim.trace.add(sb.sim.now, sb.id, "wakeup", self.id, "")
        sb.touch()


@dataclass
class IoJob:
    task: Task
    remaining: int


class Vcpu:
    """Sporadic-server resource container (Main or I/O).

    ``note_eligibility`` records ``eligible()`` wherever a change to one of
    its inputs (budget, queue, ``migrating``, dispatch floor) can change it;
    the scheduler's pick reads that record (``_eligible_since``) instead of
    evaluating.  ``migrating`` is set only by ``Sandbox.hold_vcpu``/``resume_vcpu``.
    """

    def __init__(self, sandbox, vcpu_id: str, capacity: int, period: int,
                 kind: str = "main", highest_priority: bool = False):
        if period <= 0 or capacity <= 0 or capacity > period:
            raise MalformedVcpu(f"{vcpu_id}: need 0 < C <= T, got C={capacity} T={period}")
        if kind not in VCPU_KINDS:
            raise MalformedVcpu(f"{vcpu_id}: kind must be one of {VCPU_KINDS}, "
                                f"got {kind!r}")
        self.sandbox = sandbox
        self.id = vcpu_id
        self.kind = kind
        self.capacity = int(capacity)
        self.period = int(period)
        self.highest_priority = highest_priority
        self.index = sandbox.next_vcpu_index()
        self.budget = self.capacity
        self.repl: list[LocalTimer] = []
        self.ready_q: deque[Task] = deque()
        self.tasks: list[Task] = []
        self.io_jobs: deque[IoJob] = deque()
        self.inherited: dict[str, tuple] = {}
        self._queue = self.io_jobs if kind == "io" else self.ready_q
        self.migrating = False
        self._dispatch_floor = 1
        self.chunk_activation_local: int | None = None
        self.chunk_consumed = 0
        self.total_consumed = 0
        self.exec_intervals: list[list[int]] = []
        self.eligible_intervals: list[list[int]] = []
        self._eligible_since: int | None = None

    # -- priority ---------------------------------------------------------

    def priority_key(self) -> tuple:
        if self.kind == "io":
            return min(self.inherited.values()) if self.inherited else _BACKGROUND
        return (0 if self.highest_priority else 1, self.period, self.index)

    def set_dispatch_floor(self, budget: int):
        """Dispatch only with at least min(budget, capacity) budget on hand."""
        floor = min(budget, self.capacity)
        if floor != self._dispatch_floor:
            self._dispatch_floor = floor
            self.note_eligibility()

    def eligible(self) -> bool:
        """Not migrating, work queued, and budget at least the dispatch
        floor."""
        return not self.migrating and bool(self._queue) \
            and self.budget >= self._dispatch_floor

    def note_eligibility(self):
        """Record ``eligible()`` at the current time; called after every
        change to one of its inputs that can change it.  Only the last
        record at a tick counts: zero-length intervals are dropped and
        intervals meeting at a tick are merged."""
        if self.eligible():
            if self._eligible_since is None:
                self._eligible_since = self.sandbox.sim.now
        elif self._eligible_since is not None:
            self._write_eligible(self.sandbox.sim.now)
            self._eligible_since = None

    def current_work(self):
        q = self._queue
        return q[0] if q else None

    # -- budget accounting --------------------------------------------------

    def consume(self, amount: int, allow_overrun: bool = False):
        """Charge execution to the open chunk.  A charge can change
        ``eligible()`` only by taking the budget below the dispatch floor."""
        if amount == 0:
            return
        if self.chunk_activation_local is None:
            raise OverConsume(f"{self.id}: no open execution chunk")
        if amount > self.budget and not allow_overrun:
            raise OverConsume(f"{self.id}: {amount} exceeds budget {self.budget}")
        self.budget -= amount
        self.chunk_consumed += amount
        self.total_consumed += amount
        if self.budget < self._dispatch_floor and self._eligible_since is not None:
            self.note_eligibility()

    def queue_replenishment(self, t_local: int, amount: int):
        sb = self.sandbox
        if len(self.repl) >= REPL_QUEUE_CAP:
            a, b = self.repl[0], self.repl[1]
            for e in (a, b):
                if e.event is not None:
                    sb.sim.cancel_event(e.event)
            merged = LocalTimer(max(a.t_local, b.t_local), self._on_replenish,
                                a.amount + b.amount)
            self.repl[:2] = [merged]
            sb.post_timer(self, merged)
        timer = LocalTimer(t_local, self._on_replenish, amount)
        self.repl.append(timer)
        sb.post_timer(self, timer)

    def _on_replenish(self, timer: LocalTimer):
        self.repl.remove(timer)
        self.budget += timer.amount
        sb = self.sandbox
        if self.budget > self.capacity:
            raise SchedulerFault(f"sandbox {sb.id}: VCPU {self.id} budget "
                                 f"{self.budget} over capacity {self.capacity}")
        self.note_eligibility()
        trace = sb.sim.trace
        if trace.mode != "discard":
            trace.add(sb.sim.now, sb.id, "replenish", self.id,
                      f"amount={timer.amount};budget={self.budget}")
        sb.touch()

    def timers(self) -> list[LocalTimer]:
        """Pending replenishments, then each task's wakeups: the order in
        which ``Sandbox.resume_vcpu`` reposts them, which sets their event
        ids and so their order at a shared tick."""
        return self.repl + [w for t in self.tasks for w in t.pending_wakeups]

    # -- bookkeeping for post-hoc checks ------------------------------------

    def _write_eligible(self, t: int):
        """Write the open eligible interval up to ``t``, merged into the last
        interval if that ends where it starts."""
        since = self._eligible_since
        if t > since:
            ivs = self.eligible_intervals
            if ivs and ivs[-1][1] == since:
                ivs[-1][1] = t
            else:
                ivs.append([since, t])

    def close_eligible(self, t: int):
        """Write the open eligible interval up to ``t``.  It stays open, so a
        run that goes on extends it."""
        if self._eligible_since is not None:
            self._write_eligible(t)
            self._eligible_since = t


# --- admission control ---------------------------------------------------

@dataclass(frozen=True)
class AdmissionVerdict:
    accepted: bool
    utilization_after: Fraction


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
    runs the response-time iteration (utilization may exceed the bound).
    """
    capacity, period = Fraction(capacity), Fraction(period)
    if period <= 0 or capacity <= 0 or capacity > period:
        raise MalformedVcpu(f"candidate C={capacity} T={period}")
    after = sum((Fraction(c) / Fraction(t) for c, t in existing), capacity / period)
    n = len(existing) + 1
    if mode == "ll":
        accepted = _liu_layland_ok(after, n)
    elif mode == "exact":
        pairs = [(Fraction(c), Fraction(t)) for c, t in existing]
        pairs.append((capacity, period))
        scale = math.lcm(*(x.denominator for p in pairs for x in p))
        int_pairs = [(int(c * scale), int(t * scale)) for c, t in pairs]
        accepted = after <= 1 and _rta_ok(int_pairs)
    else:
        raise ValidationError(f"admission mode must be one of {ADMISSION_MODES}, "
                              f"got {mode!r}")
    return AdmissionVerdict(accepted, after)


# --- the sandbox scheduler ------------------------------------------------

class Sandbox:
    """One kernel instance with its own clock, VCPUs, and run queue.

    ``touch`` is its one dispatch loop.  Code that runs inside it (step
    completions, migration preemption points, IPI handlers) never touches
    the same sandbox; the loop or the event that called it dispatches after.
    """

    def __init__(self, sim, sandbox_id: str, clock=None, admission_mode: str = "ll"):
        if admission_mode not in ADMISSION_MODES:
            raise ValidationError(f"sandbox {sandbox_id}: admission_mode must be one "
                                  f"of {ADMISSION_MODES}, got {admission_mode!r}")
        self.sim = sim
        self.id = sandbox_id
        self.clock = clock or SandboxClock()
        self.admission_mode = admission_mode
        self.vcpus: dict[str, Vcpu] = {}
        self.tasks: dict[str, Task] = {}
        self.spaces: dict[str, object] = {}
        self.running: Vcpu | None = None
        self.chunk_start_true = 0
        self.blocked_until = 0
        self.pending_ipis: list[tuple[str, object, object]] = []
        self._vcpu_index = 0
        self._advance_event: list | None = None  # the armed advance's handle
        self._advance_handler = self._on_advance
        self._timed = None  # the IoJob or step whose ``remaining`` runs down
        self._by_priority: list[Vcpu] = []  # main VCPUs by static priority key
        self._io_vcpus: list[Vcpu] = []
        sim.sandboxes[sandbox_id] = self

    @property
    def monitor_busy(self) -> bool:
        """A monitor-mode step is armed and has ticks left."""
        timed = self._timed
        return type(timed) is Compute and timed.monitor and timed.remaining > 0

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

    def add_task(self, task_id: str, vcpu: Vcpu, program,
                 start_ready: bool = True) -> Task:
        t = Task(self, task_id, vcpu, program)
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
        each pick, ties going to the lower ``Vcpu.index``."""
        self._by_priority = sorted((v for v in self.vcpus.values() if v.kind != "io"),
                                   key=Vcpu.priority_key)
        self._io_vcpus = [v for v in self.vcpus.values() if v.kind == "io"]

    def now_local(self) -> int:
        return self.clock.to_local(self.sim.now)

    def admit(self, capacity, period) -> AdmissionVerdict:
        existing = [(v.capacity, v.period) for v in self.vcpus.values()
                    if v.kind == "main" and not v.migrating]
        return admit(existing, capacity, period, self.admission_mode)

    # -- public scheduling ops ----------------------------------------------

    def charge_running(self, cost: int):
        """Instantly charge the running VCPU (timestamp reads, monitor calls)."""
        if cost == 0 or self.running is None:
            return
        self._settle()
        self.running.consume(cost, allow_overrun=True)
        self.touch()

    def end_poll(self, task: Task):
        """End the busy-wait of ``task``, which is on this sandbox's CPU
        right now and has just taken its message."""
        task.step = None
        self.touch()

    def kernel_block(self, duration: int, then):
        """Run kernel-context work with interrupts disabled: nothing is
        scheduled on this sandbox until it ends.  ``then()`` runs when it
        ends, after queued IPIs are delivered and before the sandbox
        dispatches."""
        if self.running is not None:
            self._settle()
            self._stop_running()
        self.blocked_until = self.sim.now + duration
        self.sim.post_event(self.blocked_until, "kernel-unblock", self.id,
                            None, lambda _: self._on_unblock(then))

    def receive_ipi(self, src: str, payload, handler):
        """IPIs are handled in the kernel, in arrival order; while a monitor
        section is in progress or the kernel is busy they queue until the
        next preemption point.  The sandbox dispatches after the handlers
        run, so handlers never touch it themselves."""
        self.pending_ipis.append((src, payload, handler))
        if self.monitor_busy or self.blocked_until > self.sim.now:
            self.sim.trace.add(self.sim.now, self.id, "ipi", src, "queued")
            return
        self.drain_ipis()
        self.touch()

    def drain_ipis(self):
        while self.pending_ipis and not self.monitor_busy \
                and self.blocked_until <= self.sim.now:
            src, payload, handler = self.pending_ipis.pop(0)
            self.sim.trace.add(self.sim.now, self.id, "ipi", src, "delivered")
            if handler is not None:
                handler(self, src, payload)

    def hold_vcpu(self, v: Vcpu):
        """Detach a VCPU that starts migrating: it stops being eligible, and
        its pending replenishment and wakeup events are cancelled and held
        until ``resume_vcpu``."""
        v.migrating = True
        v.note_eligibility()
        for timer in v.timers():
            if timer.event is not None:
                self.sim.cancel_event(timer.event)
                timer.event = None

    def resume_vcpu(self, v: Vcpu, delta_adj: int | None = None) -> list:
        """Take a VCPU back from migration and post the timers it held, first
        moving their local times by ``delta_adj`` (to no earlier than now) if
        given.  Returns the timers posted."""
        v.migrating = False
        v.note_eligibility()
        now_local = self.now_local()
        timers = v.timers()
        for timer in timers:
            if delta_adj is not None:
                timer.t_local = max(timer.t_local + delta_adj, now_local)
            self.post_timer(v, timer)
        return timers

    def post_timer(self, v: Vcpu, timer: LocalTimer):
        """Post the event of ``timer``, a timer of ``v`` or of one of its
        tasks; while ``v`` is migrating the timer is held unposted until
        ``resume_vcpu``."""
        if v.migrating:
            return
        now, fire = self.sim.now, self.clock.to_true(timer.t_local)
        timer.event = self.sim.post_event(fire if fire > now else now, "local-timer",
                                          self.id, timer, timer.fire)

    def close_run(self):
        """Close the open execution chunk and eligible intervals at now, so
        post-run bookkeeping (conservation, intervals) is exact."""
        if self.running is not None:
            self._settle()
            self._stop_running()
        for v in self.vcpus.values():
            v.close_eligible(self.sim.now)

    # -- internals ------------------------------------------------------------

    def _on_io_arrival(self, task: Task, completion_work: int):
        if not self._io_vcpus:
            task.io_blocked = False
            task.make_ready()
            self.sim.trace.add(self.sim.now, self.id, "io_done", task.id, "direct")
            self.touch()
            return
        # the I/O VCPU runs the completion at the priority of the task's VCPU;
        # with several jobs pending it holds the best of their keys
        io_vcpu = self._io_vcpus[0]
        io_vcpu.io_jobs.append(IoJob(task, completion_work))
        io_vcpu.inherited[task.id] = task.vcpu.priority_key()
        io_vcpu.note_eligibility()
        self.touch()

    def _on_unblock(self, then):
        self.drain_ipis()
        then()
        self.touch()

    def _pick(self) -> Vcpu | None:
        """The eligible VCPU (by its eligibility record) with the smallest
        priority key, ties going to the lower ``Vcpu.index``."""
        best = None
        for v in self._by_priority:
            if v._eligible_since is not None:
                best = v
                break
        if not self._io_vcpus:
            return best
        best_key = (best.priority_key(), best.index) if best is not None else None
        for v in self._io_vcpus:
            if v._eligible_since is not None:
                key = (v.priority_key(), v.index)
                if best_key is None or key < best_key:
                    best, best_key = v, key
        return best

    def touch(self):
        """Settle the running VCPU up to now, then dispatch."""
        self._settle()
        self._dispatch()

    def _dispatch(self):
        """With the running VCPU settled up to now, loop: pick, switch,
        complete the zero-length steps, and arm the advance.  A VCPU left
        without timed work is stopped and the loop picks again; one with
        timed work must survive a second pick when steps completed, as they
        can wake others."""
        while True:
            best = None if self.blocked_until > self.sim.now else self._pick()
            if best is not self.running:
                if self.running is not None:
                    self._stop_running()
                if best is not None:
                    self._start_running(best)
            if best is None:  # nothing runs, so no advance is armed
                return
            completed = self._resolve_instant(best)
            if completed is None:
                self._stop_running()
            elif not completed or self._pick() is best:
                self._arm_advance(best)
                return

    def _settle(self):
        """Charge the running VCPU for the time since its last settle."""
        v = self.running
        if v is None:
            return
        now = self.sim.now
        dt = now - self.chunk_start_true
        if dt:
            timed = self._timed  # a monitor step may overrun (``monitor_busy``)
            v.consume(dt, type(timed) is Compute and timed.monitor and timed.remaining > 0)
            if timed is not None:
                timed.remaining -= dt
                if timed.remaining < 0:
                    raise SchedulerFault(f"sandbox {self.id}: VCPU {v.id} ran "
                                         f"{-timed.remaining} ticks past {timed}")
            start = self.chunk_start_true
            ivs = v.exec_intervals
            if ivs and ivs[-1][1] == start:
                ivs[-1][1] = now
            else:
                ivs.append([start, now])
            self.chunk_start_true = now

    def _start_running(self, v: Vcpu):
        """Put ``v`` on the CPU and open its execution chunk."""
        self.running = v
        self.chunk_start_true = self.sim.now
        v.chunk_activation_local = self.clock.to_local(self.sim.now)
        trace = self.sim.trace
        if trace.mode != "discard":
            work = v._queue[0] if v._queue else None
            entity = work.id if type(work) is Task else (
                work.task.id if type(work) is IoJob else "")
            trace.add(self.sim.now, self.id, "ctx_switch", v.id,
                      f"task={entity};budget={v.budget}")

    def _stop_running(self):
        """Take the running VCPU off the CPU and queue its chunk's
        replenishment at activation + T, deferred by any overrun.  Callers
        check that a VCPU runs, and settle it up to now first."""
        v = self.running
        self.running = None
        self._timed = None
        if self._advance_event is not None:
            self.sim.cancel_event(self._advance_event)
            self._advance_event = None
        activation, consumed = v.chunk_activation_local, v.chunk_consumed
        v.chunk_activation_local, v.chunk_consumed = None, 0
        if consumed > 0:
            overrun = -v.budget if v.budget < 0 else 0
            v.queue_replenishment(activation + v.period + overrun, consumed)
        if v.budget <= 0:
            self.sim.trace.add(self.sim.now, self.id, "deplete", v.id, "")

    def _arm_advance(self, v: Vcpu):
        """Post the event at which ``v``'s current step or budget runs out,
        replacing the one armed before.  A monitor step runs to its end."""
        if self._advance_event is not None:
            self.sim.cancel_event(self._advance_event)
        work = v._queue[0]
        timed = work if type(work) is IoJob else work.step
        if type(timed) is PollWait:  # budget-bound busy wait
            timed = None
            dur = v.budget
        elif type(timed) is Compute and timed.monitor:
            dur = timed.remaining
        else:
            dur = v.budget if v.budget < timed.remaining else timed.remaining
        if dur <= 0:
            raise SchedulerFault(f"sandbox {self.id}: VCPU {v.id} armed an advance "
                                 f"of {dur} ticks (budget {v.budget}, step {timed})")
        self._timed = timed
        self._advance_event = self.sim.post_event(
            self.sim.now + dur, "advance", self.id, None, self._advance_handler)

    def _on_advance(self, _):
        """The running VCPU's step or budget ran out: complete the step, stop
        the VCPU if its budget is gone (a monitor step with ticks left runs
        on), and dispatch."""
        self._advance_event = None
        self._settle()
        v, timed = self.running, self._timed
        if timed is not None and timed.remaining == 0:
            if type(timed) is IoJob:
                self._complete_io(v)
            else:
                self._complete_step(v)
        if self.running is v and v.budget <= 0 and not (
                type(timed) is Compute and timed.monitor and timed.remaining):
            self._stop_running()
        self._dispatch()

    def _complete_io(self, v: Vcpu):
        job = v.io_jobs.popleft()
        v.inherited.pop(job.task.id, None)
        v.note_eligibility()
        job.task.io_blocked = False
        job.task.make_ready()
        self.sim.trace.add(self.sim.now, self.id, "io_done", job.task.id, "")

    def _complete_step(self, v: Vcpu):
        task = v._queue[0]
        st = task.step
        task.step = None
        if st.done is not None:
            st.done(task)

    def _resolve_instant(self, v: Vcpu) -> bool | None:
        """Complete the zero-length work at the head of ``v``'s queue (finished
        steps, steps to install, polls whose message landed).  Return None
        when ``v`` may not run timed work, else whether anything completed.
        False means the head was runnable at the first look, so nothing a
        pick reads has changed since the pick that chose ``v`` (switching to
        it only closes and opens chunks).  A completed step can make ``v``
        ineligible: a preemption point short of budget raises its floor."""
        completed = False
        queue = v._queue
        while True:
            if not queue:
                return None
            work = queue[0]
            if type(work) is IoJob:
                if work.remaining:
                    return completed
                self._complete_io(v)
            elif (st := work.step) is None:
                self._install_next(work)
            elif type(st) is PollWait:
                if st.channel.take(work) is None:
                    return completed
                work.step = None
            elif st.remaining:
                return completed
            else:
                self._complete_step(v)
                if v._eligible_since is None:
                    return None
            completed = True

    def _install_next(self, task: Task):
        if task.steps is None:
            task.steps = task.program(TaskApi(task))
        try:
            st = next(task.steps)
        except StopIteration:
            task.done = True
            task.leave_ready()
            return
        kind = type(st)
        if kind is Compute or kind is PollWait:
            task.step = st
            return
        if kind is not SleepUntil and kind is not BlockIo and kind is not Park:
            raise ValidationError(f"sandbox {self.id}: task {task.id} yielded "
                                  f"{st!r}, which is not a workload step")
        task.leave_ready()
        if kind is SleepUntil:
            timer = LocalTimer(st.t_local, task._on_wakeup)
            task.pending_wakeups.append(timer)
            self.post_timer(task.vcpu, timer)
        elif kind is BlockIo:
            task.io_blocked = True
            self.sim.post_event(
                self.sim.now + st.latency, "io-completion", self.id, task,
                lambda _, w=st.completion_work: self._on_io_arrival(task, w))
