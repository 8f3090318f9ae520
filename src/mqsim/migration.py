"""Address-space migration between sandboxes.

The protocol: the source samples its timestamp counter and sends a request
IPI; the destination samples its own counter on receipt and wakes its
migration thread, which runs admission control and then copies the thread
context records and page-directory entries inside its monitor.  Budget is
checked only at preemption points (after each context record, between
page-directory entries, and right before binding); within a period the
thread pays one VM-Exit/VM-Entry pair.  On completion the pending
replenishment and wakeup times of the migrated VCPU are shifted by the
clock-skew adjustment and the source reclaims the address space on a
completion IPI.  An alternative mode runs the same copy work inside the
destination's IPI handler with interrupts disabled, delaying every VCPU
there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from mqsim.bounds.formulas import clock_adjustment, migration_bound
from mqsim.errors import BlockedOnIo, DestinationBusy, NotEligible, ValidationError
from mqsim.sched import Compute, Park

MIGRATION_MODES = ("thread", "ipi-handler")
MAX_SPACE_BYTES = 4 << 20
PAGE_BYTES = 4096


@dataclass
class AddressSpace:
    """Migratable unit: page-directory entries, pages, and thread records."""
    id: str
    total_pages: int = 0
    pde_count: int = 1024
    pages_per_pde: int = 1024
    task_controls: list[str] = field(default_factory=list)
    tss_limit: int = 8

    def __post_init__(self):
        if not (0 < self.pde_count <= 1024):
            raise ValidationError(f"{self.id}: pde_count must be in 1..1024")
        if self.total_pages < 0 or self.tss_limit < 0:
            raise ValidationError(f"{self.id}: total_pages and tss_limit must be >= 0")
        if self.pages_per_pde < 1:
            raise ValidationError(f"{self.id}: pages_per_pde must be >= 1")
        if self.total_pages * PAGE_BYTES > MAX_SPACE_BYTES:
            raise ValidationError(f"{self.id}: address space exceeds 4 MB")
        if len(self.task_controls) > self.tss_limit:
            raise ValidationError(f"{self.id}: more thread records than tss_limit")

    def pages_in_pde(self, i: int) -> int:
        done = i * self.pages_per_pde
        return max(0, min(self.pages_per_pde, self.total_pages - done))


@dataclass
class MigrationJob:
    source: str
    destination: str
    space_id: str
    vcpu: object
    mode: str
    pde_extra_delay: int
    engine: object
    state: str = "requested"  # at-destination, copying, completed, rejected
    tsc_s: int = 0
    tsc_d: int = 0
    e_s: int | None = None
    delta_s_worst: int = 0
    delta_s_actual: int = 0           # copy work performed (cached costs)
    criterion_ok: bool | None = None
    chunks: list = field(default_factory=list)
    cursor: int = 0
    needs_resume_overhead: bool = True
    delta_adj: int = 0
    admission: object = None
    completed_at: int | None = None
    retries: int = 0
    adjusted_events: list = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "source": self.source, "destination": self.destination,
            "space": self.space_id, "vcpu": self.vcpu.id, "mode": self.mode,
            "state": self.state, "E_s_us": self.e_s,
            "delta_s_worst_us": self.delta_s_worst,
            "delta_s_actual_us": self.delta_s_actual,
            "C_m_us": self.engine.thread_vcpu(self.destination).capacity
            if self.engine.has_thread(self.destination) else None,
            "T_m_us": self.engine.thread_vcpu(self.destination).period
            if self.engine.has_thread(self.destination) else None,
            "criterion_ok": self.criterion_ok,
            "delta_adj_us": self.delta_adj,
        }


class MigrationEngine:
    """Coordinates migration jobs across all sandboxes of a simulator."""

    def __init__(self, sim):
        self.sim = sim
        self.threads: dict[str, tuple] = {}   # sandbox -> (vcpu, task)
        self.jobs: dict[str, MigrationJob] = {}  # in-flight, by destination

    # -- setup ----------------------------------------------------------------

    def create_migration_thread(self, sandbox, vcpu):
        task = sandbox.add_task(f"migthread.{sandbox.id}", vcpu,
                                program=self._thread_program, start_ready=False)
        self.threads[sandbox.id] = (vcpu, task)
        return task

    def _thread_program(self, api):
        """The migration thread: park until a job is handed over, pay the
        admission cost and run the admission test, then copy the job's
        chunks as monitor-mode work.  ``on_chunk_done`` is the preemption
        point after each chunk and finalizes the job after the last one."""
        sb = api.task.sandbox
        vcpu = api.task.vcpu
        cost = self.sim.cost
        while True:
            job = self.jobs.get(sb.id)
            if job is None or job.state != "at-destination":
                yield Park()
                continue
            yield Compute(cost.admission_cost)
            if not self._admitted(job, sb):
                continue
            self.sim.trace.add(self.sim.now, sb.id, "mig_admit", job.space_id,
                               f"util_after={float(job.admission.utilization_after):.3f}")
            for _, work in job.chunks:
                extra = cost.resume_overhead if job.needs_resume_overhead else 0
                job.needs_resume_overhead = False
                vcpu.set_dispatch_floor(1)
                yield Compute(work + extra, self.on_chunk_done, monitor=True)

    def has_thread(self, sandbox_id: str) -> bool:
        return sandbox_id in self.threads

    def thread_vcpu(self, sandbox_id: str):
        return self.threads[sandbox_id][0]

    # -- cost estimation --------------------------------------------------------

    def estimate_delta_s(self, space: AddressSpace, pde_extra_delay: int = 0) -> int:
        """Worst-case copy cost of an address space: pages at the
        cache-disabled per-page cost established at boot, thread records, and
        the full page-directory walk."""
        c = self.sim.cost
        return (space.total_pages * c.page_copy_nocache
                + len(space.task_controls) * c.tss_copy_cost
                + space.pde_count * (c.pde_walk_cost + pde_extra_delay))

    def chunk_plan(self, space: AddressSpace, pde_extra_delay: int) -> list:
        """Copy chunks separated by preemption points, at cached (actual)
        costs: one chunk per thread record, one per page-directory entry."""
        c = self.sim.cost
        plan = [(f"tss:{tid}", c.tss_copy_cost) for tid in space.task_controls]
        plan.extend(
            (f"pde:{i}", c.pde_walk_cost + pde_extra_delay
             + space.pages_in_pde(i) * c.page_copy_cache)
            for i in range(space.pde_count))
        return plan

    # -- the protocol -----------------------------------------------------------

    def request_migration(self, source: str, destination: str, space_id: str,
                          mode: str = "thread", pde_extra_delay: int = 0,
                          _retry_of: MigrationJob | None = None) -> MigrationJob:
        if mode not in MIGRATION_MODES:
            raise ValidationError(f"mode {mode!r} is not one of {MIGRATION_MODES}")
        src = self.sim.sandbox(source)
        dst = self.sim.sandbox(destination)
        space = src.spaces.get(space_id)
        if space is None:
            raise ValidationError(f"no address space {space_id} in {source}")
        tasks = [src.tasks[t] for t in space.task_controls]
        vcpus = {t.vcpu for t in tasks}
        if len(vcpus) != 1:
            raise ValidationError(f"{space_id}: tasks span multiple VCPUs")
        vcpu = vcpus.pop()

        if any(t.io_blocked for t in tasks):
            raise BlockedOnIo(space_id)
        if vcpu.eligible():
            raise NotEligible(f"{vcpu.id} is runnable with remaining budget")
        if destination in self.jobs:
            raise DestinationBusy(destination)
        if mode == "thread" and destination not in self.threads:
            raise ValidationError(f"{destination} has no migration thread")

        pending = [timer.t_local for timer in vcpu.timers()]
        e_s = min(pending) - src.now_local() if pending else None

        job = MigrationJob(source, destination, space_id, vcpu, mode,
                           pde_extra_delay, self)
        job.e_s = e_s
        if _retry_of is not None:
            job.retries = _retry_of.retries + 1
        job.delta_s_worst = self.estimate_delta_s(space, pde_extra_delay)
        job.chunks = self.chunk_plan(space, pde_extra_delay)
        if self.has_thread(destination):
            mv = self.thread_vcpu(destination)
            bound = migration_bound(job.delta_s_worst, mv.capacity, mv.period)
            job.criterion_ok = e_s is not None and e_s >= bound
        self.jobs[destination] = job

        # detach from the source scheduler; pending events are held until
        # completion or rejection
        src.hold_vcpu(vcpu)

        self.sim.trace.add(self.sim.now, source, "mig_request", space_id,
                           f"dst={destination};mode={mode};e_s={e_s};"
                           f"d_worst={job.delta_s_worst}")
        # the source samples its counter, then sends the request once the
        # read's own latency has elapsed
        job.tsc_s = self.sim.read_tsc(source)
        self.sim.post_event(
            self.sim.now + self.sim.cost.rdtsc_cost, "mig-ipi-send", source, job,
            lambda _: self.sim.send_ipi(source, destination, job,
                                         handler=self._on_request_ipi))
        src.touch()
        return job

    def _on_request_ipi(self, dst, src_id: str, job: MigrationJob):
        # the destination's own read finishes one read-latency after delivery
        self.sim.post_event(self.sim.now + self.sim.cost.rdtsc_cost,
                            "mig-tsc-read", dst.id, job,
                            lambda _: self._after_tsc_read(dst, job))

    def _after_tsc_read(self, dst, job: MigrationJob):
        job.tsc_d = self.sim.read_tsc(dst.id)
        if job.mode == "ipi-handler":
            if not self._admitted(job, dst):
                return
            total = sum(work for _, work in job.chunks)
            job.delta_s_actual = total
            self.sim.trace.add(self.sim.now, dst.id, "mig_admit", job.space_id,
                               f"mode=ipi-handler;block_us={total}")
            dst.kernel_block(total, lambda: self.finalize(job))
            return
        job.state = "at-destination"
        _, task = self.threads[dst.id]
        task.make_ready()
        dst.touch()

    def _admitted(self, job: MigrationJob, sb) -> bool:
        """Run the destination's admission test on the migrating VCPU;
        reject the job if it fails, else start copying."""
        job.admission = sb.admit(job.vcpu.capacity, job.vcpu.period)
        if not job.admission.accepted:
            self._reject(job)
            return False
        job.state = "copying"
        return True

    # -- preemption point ----------------------------------------------------------

    def on_chunk_done(self, task):
        """Preemption point after a chunk of the migration thread ``task``:
        account the chunk, deliver queued IPIs, and either continue, yield
        for budget, or finalize."""
        sb = task.sandbox
        job = self.jobs[sb.id]
        v = task.vcpu
        label, work = job.chunks[job.cursor]
        job.delta_s_actual += work
        job.cursor += 1
        v.consume(self.sim.cost.preemption_point_cost, allow_overrun=True)
        sb.drain_ipis()
        self.sim.trace.add(self.sim.now, sb.id, "mig_chunk", job.space_id,
                           f"{label};budget={v.budget}")
        if job.cursor >= len(job.chunks):
            self.finalize(job)
            return
        need = job.chunks[job.cursor][1] + self.sim.cost.preemption_point_cost
        if v.budget < need:
            job.needs_resume_overhead = True
            v.set_dispatch_floor(need + self.sim.cost.resume_overhead)

    # -- outcomes -----------------------------------------------------------------

    def _reject(self, job: MigrationJob):
        job.state = "rejected"
        dst = job.destination
        detail = ""
        if job.admission is not None:
            detail = f"util_after={float(job.admission.utilization_after):.3f}"
        self.sim.trace.add(self.sim.now, dst, "mig_reject", job.space_id, detail)
        del self.jobs[dst]
        self.sim.send_ipi(dst, job.source, job, handler=self._on_reject_ipi)

    def _on_reject_ipi(self, src, dst_id: str, job: MigrationJob):
        """The source puts the address space and its VCPU back into the local
        scheduler and retries the destination one period later."""
        src.resume_vcpu(job.vcpu)
        self.sim.trace.add(self.sim.now, src.id, "mig_requeue", job.space_id, "")
        if job.retries == 0:
            self.sim.post_event(self.sim.now + job.vcpu.period, "mig-retry", src.id,
                                job, lambda _: self._retry(job))

    def _retry(self, job: MigrationJob):
        try:
            self.request_migration(job.source, job.destination, job.space_id,
                                   job.mode, job.pde_extra_delay, _retry_of=job)
        except (NotEligible, BlockedOnIo, DestinationBusy) as exc:
            self.sim.trace.add(self.sim.now, job.source, "mig_retry_abandoned",
                               job.space_id, type(exc).__name__)

    def finalize(self, job: MigrationJob):
        """Bind the migrated address space at the destination: shift its
        pending event times by the clock-skew adjustment, enqueue the VCPU,
        and signal the source to reclaim memory.  It runs in an event of the
        destination (a preemption point or the end of the kernel block),
        which dispatches the destination afterwards."""
        sim = self.sim
        src = sim.sandbox(job.source)
        dst = sim.sandbox(job.destination)
        v = job.vcpu

        job.delta_adj = clock_adjustment(job.tsc_d, job.tsc_s,
                                         sim.cost.rdtsc_cost, sim.cost.ipi_cost)
        src.drop_vcpu(v)
        dst.adopt_vcpu(v)
        v.set_dispatch_floor(1)
        job.adjusted_events = dst.resume_vcpu(v, job.delta_adj)
        space = src.spaces.pop(job.space_id)
        dst.spaces[job.space_id] = space

        job.state = "completed"
        job.completed_at = sim.now
        del self.jobs[dst.id]
        sim.trace.add(sim.now, dst.id, "mig_finalize", job.space_id,
                      f"vcpu={v.id};delta_adj={job.delta_adj};"
                      f"d_actual={job.delta_s_actual}")
        sim.send_ipi(dst.id, src.id, job, handler=self._on_completion_ipi)
        src.touch()

    def _on_completion_ipi(self, src, dst_id: str, job: MigrationJob):
        self.sim.trace.add(self.sim.now, src.id, "mig_reclaim", job.space_id, "")
