"""Mailbox channels: isolation, depth-1 semantics, and exchange timing."""

import pytest

from mqsim.bounds import observation_delay
from mqsim.core import CostModel, Simulator
from mqsim import experiments
from mqsim.errors import AccessDenied, MailboxFull, SelfChannel, ValidationError
from mqsim.ipc import ExchangeProfile, establish_channel, run_pingpong
from mqsim.sched import Sandbox
from mqsim.workloads import pingpong_receiver, pingpong_sender

LIMIT = 3_600_000_000  # one simulated hour, far past every exchange here


def pair(profile=None, n_work=5, m_work=4, cs=2, ts=10, cd=3, td=15,
         sender_kwargs=None, receiver_kwargs=None, idle=False):
    sim = Simulator(CostModel(), trace="rows")
    s = Sandbox(sim, "s")
    d = Sandbox(sim, "d")
    vs = s.add_vcpu("vs", cs, ts)
    vd = d.add_vcpu("vd", cd, td)
    prof = profile or ExchangeProfile(n_work, m_work)
    ch = establish_channel(sim, "s", "d", prof)
    snd = s.add_task("snd", vs, start_ready=not idle,
                     program=pingpong_sender(ch, **(sender_kwargs or {})))
    rcv = d.add_task("rcv", vd, start_ready=not idle,
                     program=pingpong_receiver(ch, **(receiver_kwargs or {})))
    ch.bind(snd, rcv)
    s.touch()
    d.touch()
    return sim, ch, snd, rcv


class TestEstablish:
    def test_idempotent(self):
        sim = Simulator()
        Sandbox(sim, "a")
        Sandbox(sim, "b")
        ch1 = establish_channel(sim, "a", "b")
        ch2 = establish_channel(sim, "b", "a")
        assert ch1 is ch2

    def test_second_profile_for_a_pair_rejected(self):
        sim = Simulator()
        Sandbox(sim, "a")
        Sandbox(sim, "b")
        ch = establish_channel(sim, "a", "b")
        with pytest.raises(ValidationError, match="channel a-b"):
            establish_channel(sim, "b", "a", ExchangeProfile(k=500))
        assert ch.profile.k == 0

    def test_self_channel_rejected(self):
        sim = Simulator()
        Sandbox(sim, "a")
        with pytest.raises(SelfChannel):
            establish_channel(sim, "a", "a")

    def test_third_party_access_denied(self):
        sim, ch, snd, rcv = pair()
        intruder_sb = Sandbox(sim, "x")
        v = intruder_sb.add_vcpu("v", 5, 10)
        intruder = intruder_sb.add_task("spy", v, program=pingpong_sender(ch),
                                        start_ready=False)
        with pytest.raises(AccessDenied):
            ch.take(intruder)

    def test_free_exchange_rejected(self):
        with pytest.raises(ValidationError):
            ExchangeProfile(request_work=0, response_work=0, k=0)

    @pytest.mark.parametrize("kwargs", [
        {"request_work": -1, "response_work": 5}, {"response_work": -1},
        {"k": -1}, {"poll_cost": -1}, {"poll_interval": -1},
    ])
    def test_negative_work_or_poll_rejected(self, kwargs):
        with pytest.raises(ValidationError, match=">= 0"):
            ExchangeProfile(**kwargs)

    def test_free_poll_rejected(self):
        """Two sleep-polling tasks on a free poll would loop at one instant."""
        with pytest.raises(ValidationError, match="poll must take time"):
            ExchangeProfile(poll_cost=0, poll_interval=0)

    def test_zero_pace_rejected(self):
        _, ch, _, _ = pair(idle=True)
        with pytest.raises(ValidationError, match="pace"):
            pingpong_sender(ch, pace=0)

    @pytest.mark.parametrize("side", [pingpong_sender, pingpong_receiver])
    def test_unknown_wait_rejected_before_any_step(self, side):
        _, ch, _, _ = pair(idle=True)
        with pytest.raises(ValidationError, match="bsy"):
            side(ch, wait="bsy")


class TestMailbox:
    def test_poll_empty_returns_none(self):
        sim, ch, snd, rcv = pair(idle=True)
        assert ch.take(rcv) is None

    def test_send_to_full_mailbox_rejected(self):
        sim, ch, snd, rcv = pair(idle=True)
        ch.finish_send(snd)
        with pytest.raises(MailboxFull):
            ch.send_work(snd)

    def test_message_consumed_once(self):
        sim, ch, snd, rcv = pair(idle=True)
        ch.finish_send(snd)
        assert ch.take(rcv) is not None
        assert ch.take(rcv) is None

    def test_cached_send_cost_still_checks_the_outbox(self):
        sim, ch, snd, rcv = pair(idle=True)
        assert ch.send_work(snd) == 5
        ch.finish_send(snd)
        with pytest.raises(MailboxFull):
            ch.send_work(snd)
        assert ch.send_work(rcv) == 4
        assert ch.take(rcv) is not None
        assert ch.send_work(snd) == 5


class TestExchangeTiming:
    def test_budget_spanning_send_takes_sporadic_windows(self):
        """5 ticks of send on a 2/10 VCPU from a budget start: two ticks now,
        wait, two more, wait, one: transmission completes at tick 21."""
        sim, ch, snd, rcv = pair(n_work=5, m_work=1)
        sim.run_until(100)
        sends = [r for r in sim.trace.rows if r.kind == "msg_send"
                 and r.entity == "snd"]
        assert sends[0].t == 21

    def test_uncontended_rtt_is_pure_work(self):
        sim, ch, snd, rcv = pair(cs=10, ts=10, cd=10, td=10, n_work=3, m_work=2)
        rtts = run_pingpong(sim, ch, 5, LIMIT)
        assert rtts == [5, 5, 5, 5, 5]

    def test_service_time_charged_before_reply(self):
        prof = ExchangeProfile(3, 2, k=4)
        sim, ch, snd, rcv = pair(profile=prof, cs=10, ts=10, cd=10, td=10)
        rtts = run_pingpong(sim, ch, 3, LIMIT)
        assert rtts == [9, 9, 9]  # 3 send + 4 service + 2 reply

    def test_zero_exchanges_empty(self):
        sim, ch, snd, rcv = pair()
        assert run_pingpong(sim, ch, 0, LIMIT) == []

    def test_message_conservation(self):
        sim, ch, snd, rcv = pair()
        run_pingpong(sim, ch, 25, LIMIT)
        sent = len([r for r in sim.trace.rows if r.kind == "msg_send"
                    and r.entity == "snd"])
        received = len([r for r in sim.trace.rows if r.kind == "msg_recv"
                        and r.entity == "rcv"])
        assert sent >= 25
        assert abs(sent - received) <= 1  # at most the in-flight request

    def test_worst_case_alignment_reaches_the_bound(self):
        """Receiver 2/10 against a 20/100 sender with a 5 ms request and a
        1 ms reply: spanning send start plus a window-close alignment
        realizes the analytic worst case exactly."""
        prof = ExchangeProfile(5_000, 1_000)
        sim, ch, snd, rcv = pair(profile=prof, cs=20_000, ts=100_000,
                                 cd=2_000, td=10_000,
                                 sender_kwargs={"busy_wait": 16_000},
                                 receiver_kwargs={"initial_sleep": 9_000})
        rtts = run_pingpong(sim, ch, 3, LIMIT)
        assert max(rtts) == 94_000

    def test_samples_equal_fixed_step_run(self):
        """Ending at the last requested sample changes no sample: the fig12
        case4 point at busy wait 7 ms and receiver phase 120 ms, run to its
        samples and stepped in 1 s steps."""
        c_s, t_s = experiments.FIG12_SENDER
        prof = ExchangeProfile(experiments.FIG12_REQUEST_WORK, 5_000)

        def point():
            return pair(profile=prof, cs=c_s, ts=t_s, cd=20_000, td=200_000,
                        sender_kwargs={"busy_wait": 7_000},
                        receiver_kwargs={"initial_sleep": 120_000})

        sim, ch, snd, rcv = point()
        rtts = run_pingpong(sim, ch, 12, LIMIT)
        stepped_sim, _, stepped, _ = point()
        while len(stepped.rtt_samples) < 12:
            stepped_sim.run_until(stepped_sim.now + 1_000_000)
        assert snd.rtt_samples == stepped.rtt_samples[:12]
        assert rtts == [rtt for _, _, rtt in stepped.rtt_samples[:12]]
        assert sim.now == snd.rtt_samples[-1][1] + rtts[-1]

    @pytest.mark.parametrize("case", sorted(experiments.FIG12_CASES))
    def test_sweep_point_is_the_same_without_rows(self, case):
        """A sweep point keeps trace rows only for ``keep_segments``; its
        maximum and samples are the same either way."""
        c_s, t_s = experiments.FIG12_SENDER
        cfg = experiments.FIG12_CASES[case]
        c_d, t_d = cfg["receiver"]
        args = (c_s, t_s, c_d, t_d, experiments.FIG12_REQUEST_WORK,
                cfg["response_work"], 7_000, t_d // 3, 6)
        rowless, kept, segments = [], [], []
        worst = experiments.pingpong_case_max_rtt(*args, keep_samples=rowless)
        assert experiments.pingpong_case_max_rtt(
            *args, keep_samples=kept, keep_segments=segments) == worst
        assert rowless == kept and len(kept) == len(segments) == 6
        assert worst == max(rtt for _, _, rtt in kept)

    def test_response_at_window_end_waits_for_the_next_window(self):
        """A response written exactly at the end of the sender's window
        (t mod 100 = 20 for a 20/100 sender) is seen only in the next
        window, T_s - C_s = 80 later: the rule of ``observation_delay``."""
        segments = []
        experiments.pingpong_case_max_rtt(20, 100, 20, 100, 5, 5, 0, 0, 6,
                                          keep_segments=segments)
        at_end = [(seg, end) for seg in segments
                  for end in [seg["start"] + seg["request"] + seg["response"]]
                  if end % 100 == 20]
        assert at_end
        for seg, end in at_end:
            assert seg["observation"] == observation_delay(20, 100, end) == 80
