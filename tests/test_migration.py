"""Migration protocol: cost estimation, eligibility, copy phases, admission
outcomes, clock adjustment, and integrity."""

import pytest

from mqsim.clock import SandboxClock
from mqsim.core import CostModel, Simulator
from mqsim.errors import BlockedOnIo, DestinationBusy, NotEligible, ValidationError
from mqsim.migration import AddressSpace, MigrationEngine
from mqsim.sched import Sandbox
from mqsim.workloads import busy_loop, sleeper


def resume_overhead_paid(sim, eng, job) -> int:
    """What the destination's migration thread consumed beyond admission,
    the copy chunks and their preemption points."""
    used = eng.thread_vcpu(job.destination).total_consumed
    return (used - sim.cost.admission_cost - job.delta_s_actual
            - len(job.chunks) * sim.cost.preemption_point_cost)


def rig(admission="exact", dest_extra_load=None, sb2_offset=0):
    sim = Simulator(CostModel(), trace="rows")
    eng = MigrationEngine(sim)
    sb1 = Sandbox(sim, "sb1", admission_mode=admission)
    sb2 = Sandbox(sim, "sb2",
                  clock=SandboxClock(offset=sb2_offset),
                  admission_mode=admission)
    for sb in (sb1, sb2):
        mig = sb.add_vcpu(f"mig.{sb.id}", 10_000, 50_000, highest_priority=True)
        eng.create_migration_thread(sb, mig)
    vc = sb1.add_vcpu("workv", 20_000, 100_000)
    task = sb1.add_task("work", vc, program=busy_loop(10_000))
    sb1.spaces["work_as"] = AddressSpace("work_as", total_pages=370,
                                         task_controls=["work"])
    if dest_extra_load:
        for i, (c, t) in enumerate(dest_extra_load):
            v = sb2.add_vcpu(f"load{i}", c, t)
            sb2.add_task(f"load{i}", v, program=busy_loop(c // 2))
    sb1.touch()
    sb2.touch()
    return sim, eng, sb1, sb2, vc, task


class TestCostEstimation:
    def test_calibrated_worst_and_actual(self):
        sim, eng, sb1, *_ = rig()
        space = sb1.spaces["work_as"]
        assert eng.estimate_delta_s(space) == 5_400
        assert sum(work for _, work in eng.chunk_plan(space, 0)) == 1_700

    def test_extra_delay_brackets(self):
        sim, eng, sb1, *_ = rig()
        space = sb1.spaces["work_as"]
        worst = eng.estimate_delta_s(space, pde_extra_delay=800)
        assert worst >= 5_400 + 1024 * 800
        assert 820_000 <= worst <= 900_000

    def test_empty_space_walks_directory_only(self):
        sim, eng, *_ = rig()
        empty = AddressSpace("empty", total_pages=0, task_controls=[])
        cost = sim.cost
        assert eng.estimate_delta_s(empty) == empty.pde_count * cost.pde_walk_cost

    def test_space_invariants(self):
        with pytest.raises(Exception):
            AddressSpace("big", total_pages=2000)  # over the 4 MB cap
        with pytest.raises(Exception):
            AddressSpace("crowded", task_controls=[f"t{i}" for i in range(9)])

    @pytest.mark.parametrize("bad", [{"total_pages": -5000}, {"pages_per_pde": 0},
                                     {"tss_limit": -1}])
    def test_negative_sizes_rejected(self, bad):
        with pytest.raises(ValidationError):
            AddressSpace("s", **bad)


class TestEligibility:
    def test_runnable_vcpu_rejected(self):
        sim, eng, sb1, sb2, vc, task = rig()
        sim.run_until(5_000)  # mid-budget, running
        with pytest.raises(NotEligible):
            eng.request_migration("sb1", "sb2", "work_as")

    def test_depleted_vcpu_accepted(self):
        sim, eng, sb1, sb2, vc, task = rig()
        sim.run_until(25_000)  # budget exhausted at 20 ms
        job = eng.request_migration("sb1", "sb2", "work_as")
        assert job.e_s == 100_000 - 25_000

    def test_unknown_mode_rejected(self):
        sim, eng, sb1, sb2, vc, task = rig()
        sim.run_until(25_000)
        with pytest.raises(ValidationError, match="bogus"):
            eng.request_migration("sb1", "sb2", "work_as", mode="bogus")
        assert not eng.jobs

    def test_io_blocked_task_rejected(self):
        sim, eng, sb1, sb2, vc, task = rig()
        sim.run_until(25_000)
        task.io_blocked = True
        with pytest.raises(BlockedOnIo):
            eng.request_migration("sb1", "sb2", "work_as")

    def test_second_request_to_same_destination_busy(self):
        sim, eng, sb1, sb2, vc, task = rig()
        extra_v = sb1.add_vcpu("otherv", 10_000, 100_000)
        sb1.add_task("other", extra_v, program=sleeper())
        sb1.spaces["other_as"] = AddressSpace("other_as", total_pages=1,
                                              task_controls=["other"])
        sim.run_until(25_000)
        eng.request_migration("sb1", "sb2", "work_as")
        with pytest.raises(DestinationBusy):
            eng.request_migration("sb1", "sb2", "other_as")


class TestCompletion:
    def test_state_is_copying_mid_copy(self):
        sim, eng, sb1, sb2, vc, task = rig()
        sim.run_until(25_000)
        job = eng.request_migration("sb1", "sb2", "work_as", pde_extra_delay=800)
        sim.run_until(1_000_000)
        assert job.state == "copying"
        assert 0 < job.cursor < len(job.chunks)
        sim.run_until(12_000_000)
        assert job.state == "completed"

    def test_one_thread_completes_two_jobs_in_a_row(self):
        sim, eng, sb1, sb2, vc, task = rig()
        other_v = sb1.add_vcpu("otherv", 10_000, 100_000)
        sb1.add_task("other", other_v, program=sleeper())
        sb1.spaces["other_as"] = AddressSpace("other_as", total_pages=1,
                                              task_controls=["other"])
        sim.run_until(25_000)
        first = eng.request_migration("sb1", "sb2", "work_as")
        sim.run_until(200_000)
        assert first.state == "completed" and not eng.jobs
        second = eng.request_migration("sb1", "sb2", "other_as")
        sim.run_until(400_000)
        assert second.state == "completed"
        assert set(sb2.spaces) == {"work_as", "other_as"}
        assert other_v.id in sb2.vcpus and other_v.id not in sb1.vcpus
        admits = [r.t for r in sim.trace.rows if r.kind == "mig_admit"]
        finals = [r.t for r in sim.trace.rows if r.kind == "mig_finalize"]
        assert len(admits) == len(finals) == 2
        assert finals[0] < admits[1]

    def test_exactly_once_transfer(self):
        sim, eng, sb1, sb2, vc, task = rig()
        sim.run_until(25_000)
        job = eng.request_migration("sb1", "sb2", "work_as")
        sim.run_until(200_000)
        assert job.state == "completed"
        assert "work_as" not in sb1.spaces
        space = sb2.spaces["work_as"]
        assert space.total_pages == 370
        assert space.task_controls == ["work"]
        assert task.sandbox is sb2
        assert vc.id in sb2.vcpus and vc.id not in sb1.vcpus
        assert job.delta_s_actual == 1_700

    def test_task_keeps_executing_at_destination(self):
        sim, eng, sb1, sb2, vc, task = rig()
        sim.run_until(25_000)
        eng.request_migration("sb1", "sb2", "work_as")
        sim.run_until(1_000_000)
        # 20 ms per 100 ms, 10 ms per iteration, no loss across the move
        assert task.counters["iterations"] == 20

    def test_one_resume_overhead_for_single_period_copy(self):
        sim, eng, sb1, sb2, vc, task = rig()
        sim.run_until(25_000)
        job = eng.request_migration("sb1", "sb2", "work_as")
        sim.run_until(200_000)
        assert resume_overhead_paid(sim, eng, job) == sim.cost.resume_overhead

    def test_multi_period_copy_pays_overhead_per_period(self):
        sim, eng, sb1, sb2, vc, task = rig()
        sim.run_until(25_000)
        job = eng.request_migration("sb1", "sb2", "work_as",
                                    pde_extra_delay=800)
        sim.run_until(12_000_000)
        assert job.state == "completed"
        assert job.delta_s_actual == 820_900
        periods = resume_overhead_paid(sim, eng, job) // sim.cost.resume_overhead
        assert periods > 80  # the copy spans many budget periods

    def test_zero_skew_adjustment_is_exact(self):
        sim, eng, sb1, sb2, vc, task = rig()
        sim.run_until(25_000)
        job = eng.request_migration("sb1", "sb2", "work_as")
        sim.run_until(200_000)
        assert job.delta_adj == 0

    def test_skew_compensated_to_true_time(self):
        sim, eng, sb1, sb2, vc, task = rig(sb2_offset=10_000)
        sim.run_until(25_000)
        job = eng.request_migration("sb1", "sb2", "work_as")
        sim.run_until(200_000)
        assert job.delta_adj == 10_000
        # the carried replenishment fires at the same true time as in the
        # zero-skew run: the local shift and the clock offset cancel
        rows = [r for r in sim.trace.rows if r.kind == "replenish"
                and r.entity == "workv" and r.sandbox == "sb2"]
        assert rows[0].t == 100_000

    def test_deferred_wakeup_shifted_and_reposted(self):
        sim, eng, sb1, sb2, vc, task = rig()

        def napper(api):
            yield api.compute(1_000)
            yield api.sleep_until(500_000)
            api.task.count("woke")
            yield api.park()

        v2 = sb1.add_vcpu("napv", 5_000, 50_000)
        sb1.add_task("nap", v2, program=napper)
        sb1.spaces["nap_as"] = AddressSpace("nap_as", total_pages=2,
                                            task_controls=["nap"])
        sim.run_until(30_000)  # napper asleep now
        job = eng.request_migration("sb1", "sb2", "nap_as")
        # nearest pending event is the replenishment of the 20...21 ms chunk
        # (at 60 ms), not the distant wakeup
        assert job.e_s == 30_000
        sim.run_until(1_000_000)
        assert job.state == "completed"
        nap = sb2.tasks["nap"]
        assert nap.counters.get("woke") == 1
        wakes = [r for r in sim.trace.rows if r.kind == "wakeup"
                 and r.entity == "nap" and r.sandbox == "sb2"]
        assert wakes and wakes[0].t == 500_000

    def test_held_replenishment_reposted_before_wakeup_at_a_shared_tick(self):
        """A replenishment and a wakeup held across a migration and due at the
        same adjusted local time fire at the destination in repost order,
        replenishment first, although the source posted the wakeup first."""
        sim, eng, sb1, sb2, vc, task = rig(sb2_offset=10_000)

        def napper(api):
            start = api.local_now()
            yield api.compute(1_000)
            yield api.sleep_until(start + 50_000)  # when the chunk's budget returns
            yield api.park()

        v2 = sb1.add_vcpu("napv", 5_000, 50_000)
        sb1.add_task("nap", v2, program=napper)
        sb1.spaces["nap_as"] = AddressSpace("nap_as", total_pages=2,
                                            task_controls=["nap"])
        sb1.touch()  # napper preempts the busy loop at 0 and sleeps at 1,000
        sim.run_until(5_000)
        job = eng.request_migration("sb1", "sb2", "nap_as")
        assert job.e_s == 45_000  # both timers are due at local 50,000
        sim.run_until(100_000)
        assert job.state == "completed" and job.delta_adj == 10_000
        fired = [(r.sandbox, r.kind, r.entity) for r in sim.trace.rows
                 if r.t == 50_000 and r.kind in ("replenish", "wakeup")]
        assert fired == [("sb2", "replenish", "napv"), ("sb2", "wakeup", "nap")]


class TestRejection:
    def test_overloaded_destination_rejects_and_requeues(self):
        # destination already at 0.8 utilization; +0.2 fails the exact test
        sim, eng, sb1, sb2, vc, task = rig(
            dest_extra_load=[(40_000, 50_000)])
        sim.run_until(25_000)
        job = eng.request_migration("sb1", "sb2", "work_as")
        sim.run_until(2_000_000)
        assert job.state == "rejected"
        assert "work_as" in sb1.spaces
        assert task.sandbox is sb1
        # the VCPU went back into the local schedule and kept its rate
        assert task.counters["iterations"] == 20 * 2
        kinds = [r.kind for r in sim.trace.rows]
        assert "mig_reject" in kinds and "mig_requeue" in kinds
        # one automatic retry against the same destination was attempted
        retries = [r for r in sim.trace.rows
                   if r.kind in ("mig_request", "mig_retry_abandoned")]
        assert len(retries) >= 2


class TestIpiHandlerMode:
    def test_overloaded_destination_rejects_without_blocking(self):
        sim, eng, sb1, sb2, vc, task = rig(dest_extra_load=[(40_000, 50_000)])
        sim.run_until(25_000)
        job = eng.request_migration("sb1", "sb2", "work_as", mode="ipi-handler")
        sim.run_until(2_000_000)
        assert job.state == "rejected"
        assert task.sandbox is sb1 and "work_as" in sb1.spaces
        assert vc.id in sb1.vcpus and vc.id not in sb2.vcpus
        assert not vc.migrating
        assert sb2.blocked_until == 0
        rows = [(r.sandbox, r.kind) for r in sim.trace.rows]
        assert ("sb2", "mig_reject") in rows and ("sb1", "mig_requeue") in rows
        assert not any(kind == "mig_admit" for _, kind in rows)

    def test_kernel_block_stalls_destination(self):
        sim, eng, sb1, sb2, vc, task = rig()
        hog = sb2.add_vcpu("hogv", 10_000, 100_000)
        hog_task = sb2.add_task("hog", hog, program=busy_loop(5_000))
        sb2.touch()
        sim.run_until(25_000)
        job = eng.request_migration("sb1", "sb2", "work_as",
                                    mode="ipi-handler", pde_extra_delay=800)
        sim.run_until(2_000_000)
        assert job.state == "completed"
        total = job.delta_s_actual
        assert total == 820_900
        # nothing on the destination executed during the handler
        gap_start = 25_000
        in_block = [iv for iv in hog.exec_intervals
                    if gap_start + 1_000 < iv[0] < gap_start + total - 1_000]
        assert in_block == []


class TestMonitorModeIpis:
    def test_ipi_during_copy_chunk_waits_for_preemption_point(self):
        sim, eng, sb1, sb2, vc, task = rig()
        sim.run_until(25_000)
        eng.request_migration("sb1", "sb2", "work_as", pde_extra_delay=800)
        # let the copy start, then send an IPI mid-chunk
        sim.run_until(30_000)
        assert sb2.monitor_busy
        got = []
        sim.send_ipi("sb1", "sb2", handler=lambda sb, src, p: got.append(sim.now))
        arrival = sim.now + sim.cost.ipi_cost
        sim.run_until(80_000)
        assert got, "queued IPI never delivered"
        assert got[0] > arrival  # held until the chunk's preemption point
        chunk_times = {r.t for r in sim.trace.rows if r.kind == "mig_chunk"}
        assert got[0] in chunk_times


class TestOverrun:
    def test_single_chunk_over_budget_defers_replenishment(self):
        sim = Simulator(CostModel(), trace="rows")
        eng = MigrationEngine(sim)
        sb1 = Sandbox(sim, "sb1")
        sb2 = Sandbox(sim, "sb2")
        for sb in (sb1, sb2):
            # migration thread with a budget smaller than one copy chunk
            mig = sb.add_vcpu(f"mig.{sb.id}", 500, 5_000, highest_priority=True)
            eng.create_migration_thread(sb, mig)
        v = sb1.add_vcpu("v", 1_000, 10_000)
        sb1.add_task("t", v, program=busy_loop(500))
        sb1.spaces["as"] = AddressSpace("as", total_pages=0, pde_count=1,
                                        task_controls=["t"])
        sb1.touch()
        sb2.touch()
        sim.run_until(1_500)
        job = eng.request_migration("sb1", "sb2", "as")
        sim.run_until(100_000)
        assert job.state == "completed"
        mig2 = sb2.vcpus["mig.sb2"]
        # the admission+overhead+chunk run overran the 500-tick budget and
        # the replenishment for that chunk was deferred by the overrun
        deferred = [r for r in sim.trace.rows if r.kind == "replenish"
                    and r.entity == "mig.sb2"]
        assert deferred, "migration thread replenishment missing"
        assert replen_overrun_deferred(sim, "mig.sb2")


def replen_overrun_deferred(sim, vcpu_id):
    """The first replenishment of an overrun chunk fires later than
    activation + period."""
    starts = [r.t for r in sim.trace.rows
              if r.kind == "ctx_switch" and r.entity == vcpu_id]
    fires = [r.t for r in sim.trace.rows
             if r.kind == "replenish" and r.entity == vcpu_id]
    return bool(starts and fires) and fires[0] > starts[0] + 5_000
