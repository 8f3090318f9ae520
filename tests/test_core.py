"""Event queue, clocks, IPIs, and trace reproducibility."""

import hashlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from mqsim import trace as trace_module
from mqsim.clock import SandboxClock
from mqsim.core import CostModel, Simulator
from mqsim.errors import (PastTimestamp, RowsNotKept, SelfIpi, UnknownSandbox,
                          ValidationError)
from mqsim.experiments import run_table1
from mqsim.scenario import build, builtin_scenario, load_scenario
from mqsim.sched import Compute, Sandbox
from mqsim.trace import HASH_BLOCK_ROWS, SimTrace
from mqsim.workloads import busy_loop
from trace_corpus import blake2b64, fnv1a64, run_setup


def trace_of(rows) -> SimTrace:
    trace = SimTrace("rows")
    for row in rows:
        trace.add(*row)
    return trace


def collector(sim, log, kind):
    """A handler that logs the time, ``kind`` and its payload."""
    return lambda payload: log.append((sim.now, kind, payload))


def arm_monitor_step(sb, ticks):
    """Run a task on ``sb`` whose first step is ``ticks`` of monitor-mode
    work, armed from now."""
    v = sb.add_vcpu("v", 2 * ticks, 10 * ticks)

    def program(api):
        yield Compute(ticks, monitor=True)
        yield api.park()

    sb.add_task("t", v, program=program)
    sb.touch()


def test_event_order_and_tiebreak():
    sim = Simulator()
    log = []
    sim.post_event(100, "b", handler=collector(sim, log, "b"), payload="B")
    sim.post_event(50, "a", handler=collector(sim, log, "a"), payload="A")
    sim.post_event(100, "c", handler=collector(sim, log, "c"), payload="C")
    sim.run_until(200)
    assert log == [(50, "a", "A"), (100, "b", "B"), (100, "c", "C")]
    assert sim.now == 200


def test_post_in_past_rejected():
    sim = Simulator()
    sim.run_until(50)
    with pytest.raises(PastTimestamp):
        sim.post_event(40, "late")
    sim.post_event(50, "now-ok")


def test_cancel_before_fire():
    sim = Simulator()
    log = []
    eid = sim.post_event(10, "x", handler=collector(sim, log, "x"))
    assert sim.cancel_event(eid)
    assert not sim.cancel_event(eid)
    sim.run_until(100)
    assert log == []


def test_cancel_after_fire_is_refused():
    sim = Simulator()
    log = []
    fired = sim.post_event(10, "x", handler=collector(sim, log, "x"))
    sim.run_until(10)
    assert not sim.cancel_event(fired)
    assert log == [(10, "x", None)]


def test_event_counts_split_every_post():
    sim = Simulator()
    handles = [sim.post_event(t, "e") for t in (10, 20, 30, 40)]
    sim.cancel_event(handles[1])
    sim.cancel_event(handles[3])
    sim.cancel_event(handles[3])
    sim.run_until(25)
    assert sim.event_counts() == {"posted": 4, "cancelled": 2, "fired": 1,
                                  "pending": 1}


def test_post_without_handler_moves_the_clock_and_is_seen_by_stop():
    sim = Simulator()
    sim.post_event(10, "bare")
    sim.post_event(20, "bare")
    seen = []
    sim.run_until(100, stop=lambda: seen.append(sim.now) or True)
    assert (seen, sim.now) == ([10], 10)
    sim.run_until(100, stop=lambda: seen.append(sim.now) or False)
    assert (seen, sim.now) == ([10, 20], 100)


def test_handler_cancels_an_event_due_at_the_same_tick():
    sim = Simulator()
    log = []
    later = []
    sim.post_event(10, "canceller",
                   handler=lambda _: log.append(sim.cancel_event(later[0])))
    later.append(sim.post_event(10, "victim", handler=collector(sim, log, "victim")))
    sim.run_until(10)
    assert log == [True]


def test_empty_run_advances_clock():
    sim = Simulator()
    trace = sim.run_until(1_000_000)
    assert sim.now == 1_000_000
    assert len(trace.rows) == 0


def test_events_added_during_dispatch_run_in_order():
    sim = Simulator()
    log = []

    def first(ev):
        log.append("first")
        sim.post_event(sim.now, "nested", handler=lambda e: log.append("nested"))

    sim.post_event(10, "first", handler=first)
    sim.post_event(10, "second", handler=lambda e: log.append("second"))
    sim.run_until(10)
    assert log == ["first", "second", "nested"]


class TestStopPredicate:
    def three_events(self):
        sim = Simulator()
        log = []
        for t in (10, 20, 30):
            sim.post_event(t, "e", handler=collector(sim, log, "e"), payload=t)
        return sim, log

    def test_returns_at_the_stopping_event(self):
        sim, log = self.three_events()
        sim.run_until(100, stop=lambda: len(log) == 2)
        assert [p for _, _, p in log] == [10, 20]
        assert sim.now == 20

    def test_later_run_dispatches_the_rest(self):
        sim, log = self.three_events()
        sim.run_until(100, stop=lambda: len(log) == 1)
        assert sim.now == 10
        sim.run_until(100)
        assert [p for _, _, p in log] == [10, 20, 30]
        assert sim.now == 100

    def test_none_runs_to_the_horizon(self):
        sim, log = self.three_events()
        sim.run_until(25, stop=None)
        assert [p for _, _, p in log] == [10, 20]
        assert sim.now == 25

    def test_predicate_never_true_runs_to_the_horizon(self):
        sim, log = self.three_events()
        sim.run_until(100, stop=lambda: False)
        assert len(log) == 3
        assert sim.now == 100


class TestClock:
    def test_identity(self):
        c = SandboxClock()
        assert c.to_local(1000) == 1000

    def test_offset(self):
        c = SandboxClock(offset=480)
        assert c.to_local(1000) == 1480

    def test_drift_formula(self):
        c = SandboxClock(drift_ppm=1000)
        assert c.to_local(1_000_000) == 1_001_000

    def test_round_trip_no_drift(self):
        c = SandboxClock(offset=-123)
        for x in (-50, 0, 7, 10**9):
            assert c.to_local(c.to_true(x)) == x

    def test_inverse_with_drift_is_earliest(self):
        c = SandboxClock(offset=7, drift_ppm=333)
        for x in (0, 1, 999, 12_345_678):
            t = c.to_true(x)
            assert c.to_local(t) >= x
            assert c.to_local(t - 1) < x

    def test_drift_floor_rejected(self):
        with pytest.raises(ValidationError):
            SandboxClock(drift_ppm=-1_000_000)

    @pytest.mark.parametrize("kwargs", [{"offset": 1.5}, {"offset": True},
                                        {"drift_ppm": "x"}, {"drift_ppm": 0.5}])
    def test_non_int_offset_or_drift_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            SandboxClock(**kwargs)


@pytest.mark.parametrize("costs", [{"ipi_cost": -1},
                                   {"page_copy_nocache": 1, "page_copy_cache": 2}],
                         ids=["negative", "no-cache-cheaper"])
def test_cost_model_refusals_are_typed(costs):
    with pytest.raises(ValidationError):
        CostModel(**costs)


class TestTsc:
    def test_read_values(self):
        sim = Simulator()
        Sandbox(sim, "a", clock=SandboxClock(offset=480))
        sim.run_until(1000)
        assert sim.read_tsc("a") == 1480
        with pytest.raises(UnknownSandbox):
            sim.read_tsc("nope")

    def test_read_charges_running_vcpu(self):
        sim = Simulator(CostModel(rdtsc_cost=7))
        sb = Sandbox(sim, "a")
        v = sb.add_vcpu("v", 100, 1000)
        sb.add_task("busy", v, program=busy_loop(10))
        sb.touch()
        sim.run_until(20)
        before = v.total_consumed
        sim.read_tsc("a")
        assert v.total_consumed == before + 7


class TestIpi:
    def test_fixed_latency_delivery(self):
        sim = Simulator(CostModel(ipi_cost=100))
        Sandbox(sim, "a")
        dst = Sandbox(sim, "b")
        sim.run_until(5000)
        got = []
        sim.send_ipi("a", "b", payload=1,
                     handler=lambda sb, src, p: got.append((sim.now, src, p)))
        sim.run_until(6000)
        assert got == [(5100, "a", 1)]

    def test_self_ipi_rejected(self):
        sim = Simulator()
        Sandbox(sim, "a")
        with pytest.raises(SelfIpi):
            sim.send_ipi("a", "a")

    def test_unknown_sandbox(self):
        sim = Simulator()
        Sandbox(sim, "a")
        with pytest.raises(UnknownSandbox):
            sim.send_ipi("a", "missing")

    def test_queued_while_monitor_busy(self):
        sim = Simulator()
        Sandbox(sim, "a")
        dst = Sandbox(sim, "b")
        arm_monitor_step(dst, 1500)
        assert dst.monitor_busy
        got = []
        sim.send_ipi("a", "b", handler=lambda sb, src, p: got.append(sim.now))
        sim.run_until(1000)
        assert got == []
        assert len(dst.pending_ipis) == 1
        assert dst.monitor_busy
        sim.run_until(2000)  # the step ended at 1,500; nothing drained the queue
        assert not dst.monitor_busy
        assert got == []
        dst.drain_ipis()
        assert got == [2000]

    def test_queued_ipis_delivered_first_in_arrival_order(self):
        sim = Simulator()
        Sandbox(sim, "a")
        dst = Sandbox(sim, "b")
        arm_monitor_step(dst, 1000)
        got = []
        for p in (1, 2):
            sim.send_ipi("a", "b", payload=p,
                         handler=lambda sb, src, p: got.append((sim.now, p)))
        sim.run_until(999)
        assert dst.monitor_busy
        sim.run_until(1000)  # the step ends; the two IPIs stay queued
        assert not dst.monitor_busy
        assert [p for _, p, _ in dst.pending_ipis] == [1, 2]
        assert got == []
        sim.send_ipi("a", "b", payload=3,
                     handler=lambda sb, src, p: got.append((sim.now, p)))
        sim.run_until(2000)
        arrival = 1000 + sim.cost.ipi_cost
        assert got == [(arrival, 1), (arrival, 2), (arrival, 3)]
        assert dst.pending_ipis == []


class TestTrace:
    def test_fnv1a_known_vectors(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C

    def test_csv_header(self):
        sim = Simulator(trace="rows")
        sim.trace.add(5, "a", "wakeup", "t", "x=1")
        csv = sim.trace.to_csv()
        assert csv.splitlines()[0] == "t_true_us,sandbox,event_kind,entity,detail"
        assert csv.splitlines()[1] == "5,a,wakeup,t,x=1"

    def test_identical_runs_identical_hash(self):
        def one():
            sim = Simulator()
            sb = Sandbox(sim, "a")
            v = sb.add_vcpu("v", 10, 50)
            sb.add_task("busy", v, program=busy_loop(5))
            sb.touch()
            sim.run_until(10_000)
            return sim.trace.hash()

        assert one() == one()

    @pytest.mark.parametrize("rows", [
        [],
        [(5, "a", "wakeup", "t", "x=1")],
        [(0, "sb1", "deplete", "", ""), (0, "sb1", "wakeup", "", "x"),
         (1, "", "sample", "", "t_s=1")],
        [(7, "sb2", "ipi", "mig", "détail ✓"), (8, "sb2", "ipi", "mig", "détail ✓")],
        [(2**70 + 3, "sb1", "io_done", "t", "direct"), (-4, "sb1", "io_done", "t", "")],
    ], ids=["empty", "single-row", "empty-fields", "non-ascii", "large-t"])
    def test_hash_folds_the_csv_bytes(self, rows):
        trace = trace_of(rows)
        assert trace.hash() == blake2b64(trace.to_csv().encode())

    @pytest.mark.parametrize("n", [1, HASH_BLOCK_ROWS - 1, HASH_BLOCK_ROWS,
                                   HASH_BLOCK_ROWS + 1, 2 * HASH_BLOCK_ROWS + 1])
    def test_hash_across_block_edges(self, n):
        trace = trace_of((t, "sb1", "msg_send", f"c{t % 7}", "é" * (t % 3))
                         for t in range(n))
        assert trace.hash() == blake2b64(trace.to_csv().encode())

    def test_hash_feeds_blocks_of_rows(self, monkeypatch):
        """The hasher gets the header, then each full block of
        ``HASH_BLOCK_ROWS`` lines as ``add`` completes it, so the whole CSV
        is never built; ``hash`` feeds the pending lines to a copy."""
        fed = []

        class Recorder:
            def __init__(self, data, digest_size):
                self.inner = hashlib.blake2b(data, digest_size=digest_size)
                fed.append(data)

            def update(self, data):
                self.inner.update(data)
                fed.append(data)

            def copy(self):
                twin = Recorder.__new__(Recorder)
                twin.inner = self.inner.copy()
                return twin

            def digest(self):
                return self.inner.digest()

        monkeypatch.setattr(trace_module, "blake2b", Recorder)
        trace = trace_of((t, "sb1", "wakeup", "t", "")
                         for t in range(2 * HASH_BLOCK_ROWS + 1))
        assert [block.count(b"\n") for block in fed] == [
            1, HASH_BLOCK_ROWS, HASH_BLOCK_ROWS]
        h = trace.hash()
        assert [block.count(b"\n") for block in fed] == [
            1, HASH_BLOCK_ROWS, HASH_BLOCK_ROWS, 1]
        assert b"".join(fed) == trace.to_csv().encode()
        assert h == blake2b64(trace.to_csv().encode())

    def test_write_csv_writes_blocks_of_rows(self):
        """``write_csv`` writes the header, then the lines ``HASH_BLOCK_ROWS``
        at a time: the bytes of ``to_csv``, never built as one string."""
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)

        trace = trace_of((t, "sb1", "msg_send", f"c{t % 7}", "é" * (t % 3))
                         for t in range(2 * HASH_BLOCK_ROWS + 5))
        trace.write_csv(Recorder())
        assert [text.count("\n") for text in writes] == [
            1, HASH_BLOCK_ROWS, HASH_BLOCK_ROWS, 5]
        assert "".join(writes) == trace.to_csv()
        assert "".join(writes).encode() == csv_bytes(trace)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=10**15),
        *[st.one_of(st.sampled_from(["", "sb1", "ch=sb1-sb2", "é"]),
                    st.text(max_size=6)) for _ in range(4)]), max_size=60))
    def test_hash_property(self, rows):
        trace = trace_of(rows)
        assert trace.hash() == blake2b64(trace.to_csv().encode())

    def test_rowless_trace_keeps_nothing_and_refuses_its_bytes(self):
        """A trace in mode "discard" discards every row; its hash and CSV
        would be those of an empty run, so it refuses both."""
        trace = SimTrace("discard")
        trace.add(5, "a", "wakeup", "t", "x=1")
        trace.add(6, "a", "deplete")
        assert trace.rows == []
        with pytest.raises(RowsNotKept):
            trace.hash()
        with pytest.raises(RowsNotKept):
            trace.to_csv()

    def test_simulator_passes_its_trace_mode_to_its_trace(self):
        """The default trace hashes and counts its rows without keeping
        them, so it refuses its CSV; "rows" keeps them and "discard" keeps
        nothing."""
        sim = Simulator()
        sim.trace.add(0, "sb1", "wakeup")
        assert sim.trace.mode == "hash" and sim.trace.rows == []
        assert sim.trace.row_count == 1
        assert sim.trace.hash() == blake2b64(b"t_true_us,sandbox,event_kind,entity,"
                                             b"detail\n0,sb1,wakeup,,\n")
        with pytest.raises(RowsNotKept):
            sim.trace.to_csv()
        sim = Simulator(trace="rows")
        sim.trace.add(0, "sb1", "wakeup")
        assert sim.trace.mode == "rows" and len(sim.trace.rows) == 1
        sim = Simulator(trace="discard")
        sim.trace.add(0, "sb1", "wakeup")
        assert sim.trace.mode == "discard" and sim.trace.rows == []
        assert sim.trace.row_count == 0
        with pytest.raises(RowsNotKept):
            sim.trace.hash()
        with pytest.raises(ValidationError):
            Simulator(trace="keep")

    def test_export_writes_each_block_as_it_is_hashed(self):
        rows = [(t, "sb1", "wakeup", f"t{t % 7}", "")
                for t in range(2 * HASH_BLOCK_ROWS + 5)]
        trace = SimTrace("hash")
        trace.add(*rows[0])
        out = io.StringIO()
        with trace.export(out):
            for row in rows[1:HASH_BLOCK_ROWS - 1]:
                trace.add(*row)
            assert out.getvalue().count("\n") == 1  # the header
            trace.add(*rows[HASH_BLOCK_ROWS - 1])
            assert out.getvalue().count("\n") == 1 + HASH_BLOCK_ROWS
            for row in rows[HASH_BLOCK_ROWS:]:
                trace.add(*row)
        assert out.getvalue() == trace_of(rows).to_csv()
        assert trace.hash() == blake2b64(out.getvalue().encode())

    def test_export_refused_once_a_block_is_hashed(self):
        trace = SimTrace("hash")
        for t in range(HASH_BLOCK_ROWS):
            trace.add(t, "sb1", "wakeup")
        with pytest.raises(RowsNotKept):
            with trace.export(io.StringIO()):
                pass
        with pytest.raises(RowsNotKept):
            with SimTrace("discard").export(io.StringIO()):
                pass

    def test_hash_never_builds_the_csv(self, monkeypatch):
        sim = run_setup(22)
        data = sim.trace.to_csv().encode()
        # corpus seed 22 as pinned in test_golden.py
        assert f"{fnv1a64(data):016x}" == "4ed370679b0296d4"
        expected = blake2b64(data)

        def refuse(trace):
            raise AssertionError("hash() built the CSV")

        monkeypatch.setattr(SimTrace, "to_csv", refuse)
        assert sim.trace.hash() == expected


# The row-to-bytes function of the trace from before it streamed, kept as it
# was: an independent check of the line formatter that ``SimTrace`` shares
# between ``add`` and ``to_csv``.
def _lines(rows) -> str:
    """The CSV lines of ``rows``, each ending in a newline."""
    return "".join([f"{t},{sandbox},{kind},{entity},{detail}\n"
                    for t, sandbox, kind, entity, detail in rows])


def csv_bytes(trace) -> bytes:
    return ("t_true_us,sandbox,event_kind,entity,detail\n" + _lines(trace.rows)).encode()


TABLE1_VARIANTS = [
    pytest.param(dict(mode=mode, pde_extra=pde), id=f"{mode}-pde{pde}")
    for mode in ("thread", "ipi-handler") for pde in (0, 800)]


def table1_built(trace: str, mode: str = "thread", pde_extra: int = 0):
    raw = builtin_scenario("table1")
    raw["migrations"][0].update(mode=mode, pde_extra_delay_us=pde_extra)
    return build(load_scenario(raw), trace)


class TestStreamedHash:
    """Every recording trace hashes its rows as they are added; a trace in
    mode "hash" keeps none of them."""

    def assert_same_trace(self, hashed, kept):
        expected = blake2b64(csv_bytes(kept))
        assert hashed.rows == [] and hashed.row_count == len(kept.rows)
        assert kept.to_csv().encode() == csv_bytes(kept)
        assert hashed.hash() == kept.hash() == expected

    @pytest.mark.parametrize("kwargs", TABLE1_VARIANTS)
    def test_table1_hash_only_equals_rows_kept(self, kwargs):
        self.assert_same_trace(run_table1(**kwargs).sim.trace,
                               run_table1(**kwargs, trace="rows").sim.trace)

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_corpus_hash_only_equals_rows_kept(self, seed):
        self.assert_same_trace(run_setup(seed, trace="hash").trace,
                               run_setup(seed).trace)

    @pytest.mark.parametrize("kwargs", TABLE1_VARIANTS)
    def test_hash_mid_run(self, kwargs):
        """``hash`` may be called at any point, and again: each time it is
        the hash of the rows added so far, in either mode."""
        hashed = table1_built("hash", **kwargs).sim
        kept = table1_built("rows", **kwargs).sim
        for t in (0, 2_500_000, 5_030_200, 7_000_001, 12_000_000):
            hashed.run_until(t)
            kept.run_until(t)
            self.assert_same_trace(hashed.trace, kept.trace)
            assert hashed.trace.hash() == kept.trace.hash() == blake2b64(
                csv_bytes(kept.trace))

    def test_long_run_holds_one_block(self, monkeypatch):
        """A 60 s table1 run keeps no rows and never holds a full block of
        pending lines."""
        most = []
        add = SimTrace.add

        def add_watched(trace, *row):
            add(trace, *row)
            most.append(len(trace._pending))

        monkeypatch.setattr(SimTrace, "add", add_watched)
        sim = table1_built("hash").sim
        sim.run_until(60_000_000)
        assert sim.trace.rows == []
        assert sim.trace.row_count == len(most) > 50_000
        assert max(most) < HASH_BLOCK_ROWS
