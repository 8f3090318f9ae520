"""Sporadic-server scheduling: priorities, replenishment, admission,
priority inheritance, and the budget laws."""

from fractions import Fraction

import pytest

from mqsim.clock import SandboxClock
from mqsim.core import CostModel, Simulator
from mqsim.errors import MalformedVcpu, OverConsume, SchedulerFault, ValidationError
from mqsim.ipc import ExchangeProfile, establish_channel
from mqsim.metrics import (IntervalSet, budget_law_violations, finish_run,
                           replenishment_conserved)
from mqsim.sched import REPL_QUEUE_CAP, Compute, Sandbox, Vcpu, admit
from mqsim.workloads import (busy_loop, io_cycle, periodic_logger, pingpong_receiver,
                             pingpong_sender)
from trace_corpus import CORPUS_SEEDS, run_setup


def mini(admission="ll"):
    sim = Simulator(CostModel(), trace="rows")
    return sim, Sandbox(sim, "sb", admission_mode=admission)


def run_program(capacity, period, program, until):
    """Run one VCPU with one task on ``program`` until ``until``; return it."""
    sim, sb = mini()
    v = sb.add_vcpu("v", capacity, period)
    sb.add_task("t", v, program=program)
    sb.touch()
    sim.run_until(until)
    return v


def repl_of(v) -> list:
    return [(e.t_local, e.amount) for e in v.repl]


class TestVcpuBasics:
    def test_malformed(self):
        _, sb = mini()
        with pytest.raises(MalformedVcpu):
            sb.add_vcpu("bad", 30, 20)
        with pytest.raises(MalformedVcpu):
            sb.add_vcpu("bad2", 0, 20)

    def test_unknown_kind_rejected(self):
        _, sb = mini()
        with pytest.raises(MalformedVcpu, match="kind"):
            sb.add_vcpu("bad", 10, 20, kind="Main")

    def test_free_busy_loop_rejected(self):
        with pytest.raises(ValidationError):
            busy_loop(0)

    @pytest.mark.parametrize("make", [lambda: periodic_logger(period=0),
                                      lambda: io_cycle(0, 0, 100)],
                             ids=["logger-period", "io-cycle"])
    def test_free_cycle_rejected(self, make):
        with pytest.raises(ValidationError, match=">= 1"):
            make()

    def test_rate_monotonic_pick(self):
        sim, sb = mini()
        a = sb.add_vcpu("a", 10, 50)
        b = sb.add_vcpu("b", 20, 100)
        sb.add_task("ta", a, program=busy_loop(5))
        sb.add_task("tb", b, program=busy_loop(5))
        sb.touch()
        assert sb.running is a
        sim.run_until(40)
        assert a.exec_intervals == [[0, 10]]
        assert b.exec_intervals == [[10, 30]]

    def test_all_depleted_is_idle(self):
        sim, sb = mini()
        a = sb.add_vcpu("a", 10, 50)
        sb.add_task("ta", a, program=busy_loop(5))
        sb.touch()
        sim.run_until(20)
        assert a.budget == 0 and sb.running is None
        assert a.exec_intervals == [[0, 10]]
        assert repl_of(a) == [(50, 10)]

    def test_replenished_vcpu_runs_again(self):
        sim, sb = mini()
        a = sb.add_vcpu("a", 10, 50)
        t = sb.add_task("ta", a, program=busy_loop(5))
        sb.touch()
        sim.run_until(200)
        assert a.exec_intervals[:3] == [[0, 10], [50, 60], [100, 110]]
        assert t.counters["iterations"] == 8

    def test_scheduler_asks_vcpu_eligible(self, monkeypatch):
        """``Vcpu.eligible`` is the one predicate: the pick and the
        eligibility record both follow it."""
        sim, sb = mini()
        a = sb.add_vcpu("a", 10, 50)
        b = sb.add_vcpu("b", 20, 100)
        monkeypatch.setattr(Vcpu, "eligible", lambda v: v.id == "b")
        sb.add_task("ta", a, program=busy_loop(5))
        sb.add_task("tb", b, program=busy_loop(5))
        sb.touch()
        assert sb.running is b
        sim.run_until(15)
        finish_run(sim)
        assert a.eligible_intervals == [] and a.exec_intervals == []
        assert b.eligible_intervals == [[0, 15]]

    @staticmethod
    def _check_after_dispatch(monkeypatch, findings) -> list:
        """Patch ``Sandbox._dispatch``, which every touch and every advance
        event runs, to collect, after each call, the ``(now, finding)``
        pairs of ``findings(sb)``."""
        bad = []
        dispatch = Sandbox._dispatch

        def checked(sb):
            dispatch(sb)
            bad.extend((sb.sim.now, f) for f in findings(sb))
        monkeypatch.setattr(Sandbox, "_dispatch", checked)
        return bad

    @staticmethod
    def _stale_records(sb) -> list:
        """VCPUs whose recorded eligibility differs from ``Vcpu.eligible``."""
        return [v.id for v in sb.vcpus.values()
                if (v._eligible_since is not None) != v.eligible()]

    @staticmethod
    def _missed_pick(sb) -> list:
        """(running, picked) when an unblocked sandbox runs another VCPU
        than the one its pick prefers."""
        best = sb._pick()
        if sb.blocked_until > sb.sim.now or best is sb.running:
            return []
        return [tuple(v.id if v else None for v in (sb.running, best))]

    def test_record_follows_predicate_on_table1(self, monkeypatch):
        from mqsim.experiments import run_table1
        bad = self._check_after_dispatch(monkeypatch, self._stale_records)
        run_table1(migrate=True)
        assert bad == []

    def test_record_follows_predicate_on_random_setups(self, monkeypatch):
        bad = self._check_after_dispatch(monkeypatch, self._stale_records)
        for seed in CORPUS_SEEDS[:20]:
            run_setup(seed)
        assert bad == []

    def test_running_vcpu_is_the_pick_on_table1(self, monkeypatch):
        from mqsim.experiments import run_table1
        bad = self._check_after_dispatch(monkeypatch, self._missed_pick)
        run_table1(migrate=True)
        assert bad == []

    def test_running_vcpu_is_the_pick_on_random_setups(self, monkeypatch):
        """After each dispatch the running VCPU is the pick, also when the
        running VCPU's zero-length completions woke a better one (seed 28)."""
        bad = self._check_after_dispatch(monkeypatch, self._missed_pick)
        for seed in CORPUS_SEEDS:
            run_setup(seed)
        assert bad == []

    @staticmethod
    def _misqueued(sb) -> list:
        """(VCPU, task) pairs queued out of place: an I/O VCPU queues only
        I/O-blocked tasks, each on its completion's ``Compute`` step, and a
        main VCPU only its own tasks that are not I/O-blocked."""
        return [(v.id, t.id) for v in sb.vcpus.values() for t in v.queue
                if not (t.io_blocked and type(t.step) is Compute if v.kind == "io"
                        else t.vcpu is v and not t.io_blocked)]

    def test_io_completions_queue_on_the_io_vcpu_on_random_setups(self, monkeypatch):
        """After each dispatch every queued task is in place, and the corpus
        runs 1,660 completions on I/O VCPUs (in 30 seeds) and 1,057 direct
        ones, so its goldens pin both paths."""
        bad = self._check_after_dispatch(monkeypatch, self._misqueued)
        on_io, direct, seeds = 0, 0, 0
        for seed in CORPUS_SEEDS:
            details = [r.detail for r in run_setup(seed).trace.rows
                       if r.kind == "io_done"]
            n = details.count("")
            on_io, direct, seeds = on_io + n, direct + len(details) - n, seeds + (n > 0)
        assert bad == []
        assert (on_io, direct, seeds) == (1_660, 1_057, 30)

    def test_highest_priority_flag_beats_shorter_period(self):
        sim, sb = mini()
        hp = sb.add_vcpu("hp", 10, 1000, highest_priority=True)
        fast = sb.add_vcpu("fast", 10, 20)
        sb.add_task("t1", hp, program=busy_loop(5))
        sb.add_task("t2", fast, program=busy_loop(5))
        sb.touch()
        assert sb.running is hp


class TestSettle:
    """The running VCPU is charged up to now before it leaves the CPU."""

    def _running_at_7(self):
        sim, sb = mini()
        a = sb.add_vcpu("a", 10, 50)
        sb.add_task("ta", a, program=busy_loop(5))
        sb.touch()
        sim.run_until(7)  # one step done at 5, the next runs until 10
        assert sb.running is a
        return sim, sb, a

    def test_close_run_charges_up_to_now(self):
        sim, sb, a = self._running_at_7()
        sb.close_run()
        assert sb.running is None
        assert (a.exec_intervals, a.budget) == ([[0, 7]], 3)

    def test_kernel_block_charges_up_to_now(self):
        sim, sb, a = self._running_at_7()
        sb.kernel_block(20, lambda: None)
        assert sb.running is None
        assert (a.exec_intervals, a.budget) == ([[0, 7]], 3)
        sim.run_until(30)  # unblocked at 27, the last 3 ticks of budget run
        assert a.exec_intervals == [[0, 7], [27, 30]]


class TestReplenishment:
    """Budget chunks come from compute/sleep programs: each chunk that ends
    (by sleep, park or depletion) queues its replenishment."""

    @staticmethod
    def chunks(*steps):
        """A program of ``(compute, sleep_until)`` pairs, then a park."""
        def program(api):
            for work, wake in steps:
                yield api.compute(work)
                if wake is not None:
                    yield api.sleep_until(wake)
            yield api.park()
        return program

    def test_full_chunk(self):
        v = run_program(10_000, 50_000, self.chunks((10_000, None)), 20_000)
        assert repl_of(v) == [(50_000, 10_000)]

    def test_split_chunks(self):
        v = run_program(10_000, 50_000,
                        self.chunks((4_000, 20_000), (6_000, None)), 30_000)
        assert repl_of(v) == [(50_000, 4_000), (70_000, 6_000)]

    def test_overrun_defers_replenishment(self):
        # a monitor step runs 2 ms beyond the budget
        def program(api):
            yield Compute(12_000, monitor=True)
            yield api.park()

        v = run_program(10_000, 50_000, program, 20_000)
        assert v.budget == -2_000
        assert repl_of(v) == [(52_000, 12_000)]

    def test_overconsume_rejected(self):
        sim, sb = mini()
        v = sb.add_vcpu("v", 10, 50)
        with pytest.raises(OverConsume, match="no open execution chunk"):
            v.consume(1)
        sb.add_task("t", v, program=busy_loop(5))
        sb.touch()  # the dispatch opens v's chunk
        with pytest.raises(OverConsume, match="exceeds budget"):
            v.consume(11)

    def test_queue_cap_merges_oldest(self):
        # nine one-tick chunks at 0, 10, ..., 80
        v = run_program(100, 1000,
                        self.chunks(*((1, (i + 1) * 10) for i in range(9))), 100)
        assert len(v.repl) <= REPL_QUEUE_CAP
        # the two oldest merged at the later of their times
        assert v.repl[0].amount == 2
        assert v.repl[0].t_local == 1010
        assert sum(e.amount for e in v.repl) == 9

    def test_budget_plus_pending_is_capacity(self):
        v = run_program(100, 1000, self.chunks((30, 100), (20, None)), 200)
        assert v.budget + sum(e.amount for e in v.repl) == v.capacity

    def test_replenishment_over_capacity_is_a_fault(self):
        v = run_program(10_000, 50_000, self.chunks((10_000, None)), 20_000)
        v.repl[0].amount += 1
        with pytest.raises(SchedulerFault, match="sandbox sb: VCPU v budget 10001"):
            v.sandbox.sim.run_until(60_000)


class TestStepInput:
    """Step constructors take non-negative int ticks and local times, and a
    program may yield only workload steps."""

    @pytest.mark.parametrize("step, args", [
        ("compute", (-5,)), ("compute", (2.7,)), ("compute", ("3",)),
        ("compute", (True,)), ("block_io", (-5, 100)), ("block_io", (100, -1)),
        ("sleep_until", (1.5,)), ("sleep_for", (-1,)), ("sleep_for", (0.5,))])
    def test_bad_ticks_are_refused(self, step, args):
        def program(api):
            yield getattr(api, step)(*args)
        sim, sb = mini()
        sb.add_task("t", sb.add_vcpu("v", 10, 50), program=program)
        with pytest.raises(ValidationError, match=f"task t: {step} .* must be a"):
            sb.touch()

    def test_sleep_until_a_negative_local_time(self):
        """A clock 25 ms behind true time reads negative local times, so a
        paced sender sleeps until one: its first send is at local -20 ms."""
        sim = Simulator(CostModel())
        s = Sandbox(sim, "s", SandboxClock(-25_000))
        d = Sandbox(sim, "d")
        ch = establish_channel(sim, "s", "d", ExchangeProfile(100, 100))
        snd = s.add_task("snd", s.add_vcpu("vs", 1_000, 10_000),
                         program=pingpong_sender(ch, pace=10_000))
        rcv = d.add_task("rcv", d.add_vcpu("vd", 1_000, 10_000),
                         program=pingpong_receiver(ch))
        ch.bind(snd, rcv)
        s.touch()
        d.touch()
        sim.run_until(50_000)
        assert snd.rtt_samples[:2] == [(0, -20_000, 10_000), (1, 0, 10_000)]

    def test_zero_ticks_complete_at_once(self):
        def program(api):
            yield api.compute(0)
            yield api.sleep_for(0)
            yield api.block_io(0, 0)
            api.task.count("done")
            yield api.park()
        sim, sb = mini()
        t = sb.add_task("t", sb.add_vcpu("v", 10, 50), program=program)
        sb.touch()
        sim.run_until(100)
        assert t.counters == {"done": 1}

    def test_non_step_is_refused(self):
        def program(api):
            yield "compute 5"
        sim, sb = mini()
        sb.add_task("t", sb.add_vcpu("v", 10, 50), program=program)
        with pytest.raises(ValidationError,
                           match="sandbox sb: task t yielded 'compute 5', which is not"):
            sb.touch()


class TestAdmission:
    def test_single_vcpu_accepted(self):
        verdict = admit([], 20, 100)
        assert verdict.accepted
        assert verdict.utilization_after == Fraction(1, 5)

    def test_table_set_rejected_by_utilization_bound(self):
        existing = [(20, 100), (10, 50), (20, 100), (10, 100)]
        verdict = admit(existing, 20, 100, mode="ll")
        assert not verdict.accepted
        assert verdict.utilization_after == Fraction(9, 10)

    def test_table_set_accepted_by_exact_test(self):
        existing = [(20, 100), (10, 50), (20, 100), (10, 100)]
        verdict = admit(existing, 20, 100, mode="exact")
        assert verdict.accepted

    def test_malformed_candidate(self):
        with pytest.raises(MalformedVcpu):
            admit([], 30, 20)

    def test_liu_layland_boundary_exact(self):
        # one VCPU: bound is exactly 1
        assert admit([], 100, 100, mode="ll").accepted
        # two VCPUs at the bound 2(sqrt(2)-1) cannot be hit exactly by
        # rationals, but just under it must pass: 0.41 + 0.41 < 0.8284
        assert admit([(41, 100)], 41, 100, mode="ll").accepted
        assert not admit([(42, 100)], 42, 100, mode="ll").accepted

    def test_unknown_mode_rejected_at_construction(self):
        sim = Simulator()
        with pytest.raises(ValidationError, match="admission_mode"):
            Sandbox(sim, "a", admission_mode="bogus")
        assert sim.sandboxes == {}

    def test_unknown_mode_rejected_by_the_test(self):
        with pytest.raises(ValidationError, match="bogus"):
            admit([], 1, 2, "bogus")


class TestPriorityInheritance:
    def test_completed_job_gives_up_its_key(self):
        """Through dispatch: the I/O VCPU queues the I/O-blocked tasks, holds
        the best key of their VCPUs, and gives a task's key up when its
        completion step hands it back."""
        sim, sb = mini()
        io = sb.add_vcpu("io", 2_000, 10_000, kind="io")
        short = sb.add_vcpu("short", 1_000, 5_000)
        long = sb.add_vcpu("long", 1_000, 20_000)
        # short computes 0..100 and its job arrives at 1,100; long computes
        # 100..200 and its job arrives at 1,250; each job is 500 of work
        sb.add_task("ts", short, program=io_cycle(100, 1_000, 500))
        sb.add_task("tl", long, program=io_cycle(100, 1_050, 500))
        sb.touch()
        sim.run_until(1_200)
        assert sb.running is io
        assert io.priority_key() == short.priority_key()
        sim.run_until(1_300)
        assert [t.id for t in io.queue] == ["ts", "tl"]
        assert io.priority_key() == short.priority_key()  # max of the two
        sim.run_until(1_650)  # short's job completed at 1,600
        assert io.priority_key() == long.priority_key()
        assert sb.running is short  # its key now beats the I/O VCPU's
        sim.run_until(2_250)  # long's job completed at 2,200
        assert not io.queue and [t.id for t in long.queue] == ["tl"]
        assert [iv[0] for iv in io.exec_intervals] == [1_100, 1_700]

    def test_task_bound_to_an_io_vcpu_refused(self):
        _, sb = mini()
        io = sb.add_vcpu("io", 10, 100, kind="io")
        with pytest.raises(ValidationError, match="I/O VCPU io"):
            sb.add_task("t", io, program=busy_loop(5))
        assert (sb.tasks, io.tasks, list(io.queue)) == ({}, [], [])

    def test_key_tie_goes_to_the_earlier_vcpu(self):
        """An I/O VCPU holding a main VCPU's own key runs first when it was
        added first, and second when it was added after."""
        for io_first in (True, False):
            sim, sb = mini()
            if io_first:
                io = sb.add_vcpu("io", 10, 100, kind="io")
            main = sb.add_vcpu("m", 50, 100)
            if not io_first:
                io = sb.add_vcpu("io", 10, 100, kind="io")
            # the waiter computes 0..1 and its 3-tick job arrives at 8,
            # while the busy task runs on the main VCPU
            sb.add_task("waiter", main, program=io_cycle(1, 7, 3))
            sb.add_task("busy", main, program=busy_loop(5))
            sb.touch()
            sim.run_until(9)
            assert [t.id for t in io.queue] == ["waiter"]
            assert io.priority_key() == main.priority_key()
            assert sb.running is (io if io_first else main)

    def test_order_follows_adopt_and_drop(self):
        sim, sb = mini()
        other = Sandbox(sim, "other")
        fast = sb.add_vcpu("fast", 10, 50)
        slow = sb.add_vcpu("slow", 10, 100)
        for v in (fast, slow):
            sb.add_task(f"t.{v.id}", v, program=busy_loop(5))
        sb.touch()
        assert sb.running is fast
        sb.drop_vcpu(fast)
        sb.touch()
        assert sb.running is slow
        moved = other.add_vcpu("moved", 10, 60)
        other.add_task("t.moved", moved, program=busy_loop(5))
        other.drop_vcpu(moved)
        sb.adopt_vcpu(moved)
        sb.touch()
        assert sb.running is moved
        sb.drop_vcpu(moved)
        sb.touch()
        assert sb.running is slow

    def test_io_completion_wakes_task(self):
        sim, sb = mini()
        io = sb.add_vcpu("io", 1000, 10_000, kind="io")
        main = sb.add_vcpu("m", 5_000, 10_000)
        t = sb.add_task("t", main, program=io_cycle(1_000, 5_000, 100))
        sb.touch()
        sim.run_until(1_000)
        assert t.io_blocked
        sim.run_until(50_000)
        assert t.counters["io_cycles"] >= 3
        assert io.total_consumed >= 300

    def test_io_runs_at_inherited_priority(self):
        sim, sb = mini()
        io = sb.add_vcpu("io", 1000, 10_000, kind="io")
        main = sb.add_vcpu("m", 2_000, 10_000)
        hog_v = sb.add_vcpu("hog", 9_000, 90_000)
        t = sb.add_task("t", main, program=io_cycle(100, 500, 200))
        sb.add_task("hog", hog_v, program=busy_loop(1_000))
        sb.touch()
        sim.run_until(2_000)
        # completion work ran promptly even though the hog was runnable:
        # the io VCPU inherited the short period of the blocked task's VCPU
        assert t.counters.get("io_cycles", 0) >= 1


class TestSleepWake:
    def test_sleep_until_and_resume(self):
        sim, sb = mini()
        v = sb.add_vcpu("v", 10, 100)

        def program(api):
            yield api.compute(5)
            yield api.sleep_until(200)
            yield api.compute(5)
            api.task.count("done")

        t = sb.add_task("t", v, program=program)
        sb.touch()
        sim.run_until(100)
        assert not t.ready
        sim.run_until(300)
        assert t.counters["done"] == 1
        assert v.exec_intervals == [[0, 5], [200, 205]]

    def test_external_wakeup_op(self):
        sim, sb = mini()
        v = sb.add_vcpu("v", 10, 100)

        def program(api):
            yield api.park()
            yield api.compute(5)
            api.task.count("woke")

        t = sb.add_task("t", v, program=program)
        sb.touch()
        sim.run_until(10)
        assert not t.ready
        t.make_ready()
        sb.touch()
        sim.run_until(20)
        assert t.counters["woke"] == 1


class TestBudgetLaws:
    def _run_busy_pair(self):
        sim, sb = mini()
        a = sb.add_vcpu("a", 3, 10)
        b = sb.add_vcpu("b", 5, 17)
        sb.add_task("ta", a, program=busy_loop(2))
        sb.add_task("tb", b, program=busy_loop(3))
        sb.touch()
        sim.run_until(100_000)
        finish_run(sim)
        return sim, [a, b]

    def test_sliding_window_and_conservation(self):
        sim, vcpus = self._run_busy_pair()
        for v in vcpus:
            assert budget_law_violations(v) == []
            assert replenishment_conserved(v)

    def test_work_conservation_within_priority(self):
        # the CPU is never idle while some vcpu has budget and work
        sim, vcpus = self._run_busy_pair()
        merged = []
        for v in vcpus:
            merged.extend(map(tuple, v.exec_intervals))
        covered = IntervalSet(sorted(merged))
        # vcpu 'a' alone guarantees 3 ticks every 10; heavy undercoverage
        # would show as a window with zero work
        assert covered.overlap(0, 100_000) >= 3 * (100_000 // 10)

    def test_rm_argmax_invariance_under_scaling(self):
        def decision_sequence(scale):
            sim, sb = mini()
            a = sb.add_vcpu("a", 3 * scale, 10 * scale)
            b = sb.add_vcpu("b", 5 * scale, 17 * scale)
            sb.add_task("ta", a, program=busy_loop(scale))
            sb.add_task("tb", b, program=busy_loop(scale))
            sb.touch()
            sim.run_until(3_000 * scale)
            return [(r.t // scale, r.entity) for r in sim.trace.rows
                    if r.kind == "ctx_switch"]

        assert decision_sequence(1) == decision_sequence(7)
