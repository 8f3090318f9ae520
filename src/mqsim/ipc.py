"""Shared-memory mailbox channels between sandboxes.

A channel is a pair of depth-1 mailboxes mapped into exactly two sandboxes;
each mailbox holds one message described by its size.
Arrival is observed by polling: a task either busy-waits (consuming budget
until the status bit flips) or sleep-polls at an interval, paying a fixed
cost per attempt.  Round-trip samples are recorded by the sender's workload
in its local clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from mqsim.errors import AccessDenied, MailboxFull, SelfChannel
from mqsim.sched import PollWait


@dataclass(frozen=True)
class ExchangeProfile:
    """Sizes and per-byte costs of one request/response pattern."""
    n_bytes: int = 2048
    m_bytes: int = 2048
    delta_s: Fraction = Fraction(1, 8)   # sender ticks per byte
    delta_d: Fraction = Fraction(1, 8)   # receiver ticks per byte
    k: int = 0                           # receiver service time per request
    poll_cost: int = 10
    poll_interval: int = 500

    def __post_init__(self):
        # a free exchange would let two busy-polling tasks trade messages
        # forever without simulated time passing
        if self.n_bytes * self.delta_s + self.k + self.m_bytes * self.delta_d <= 0:
            raise ValueError("an exchange must take time: request, service "
                             "and response all cost zero ticks")


@dataclass
class Message:
    nbytes: int


@dataclass
class Mailbox:
    status_full: bool = False
    message: Message | None = None


@dataclass
class Channel:
    sim: object
    id: str
    profile: ExchangeProfile
    task_a: object = None
    task_b: object = None
    mbox_to_a: Mailbox = field(default_factory=Mailbox)
    mbox_to_b: Mailbox = field(default_factory=Mailbox)
    # integer send cost per (side, nbytes); the profile is frozen
    _send_costs: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)
    # the detail of every msg_send and msg_recv row
    _trace_detail: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._trace_detail = f"ch={self.id}"

    def bind(self, task_a, task_b):
        self.task_a, self.task_b = task_a, task_b
        return self

    def _side(self, task) -> str:
        if task is self.task_a:
            return "a"
        if task is self.task_b:
            return "b"
        raise AccessDenied(f"task {task.id} is not an endpoint of channel {self.id}")

    def _outbox(self, task) -> Mailbox:
        return self.mbox_to_b if self._side(task) == "a" else self.mbox_to_a

    def _inbox(self, task) -> Mailbox:
        return self.mbox_to_a if self._side(task) == "a" else self.mbox_to_b

    def _peer(self, task):
        return self.task_b if self._side(task) == "a" else self.task_a

    # -- operations ---------------------------------------------------------

    def send_work(self, task, nbytes: int) -> int:
        """Execution ticks the send costs; checked at send start."""
        if self._outbox(task).status_full:
            raise MailboxFull(f"channel {self.id}: previous message not consumed")
        side = self._side(task)
        key = (side, nbytes)
        cost = self._send_costs.get(key)
        if cost is None:
            delta = self.profile.delta_s if side == "a" else self.profile.delta_d
            cost = nbytes * Fraction(delta)
            if cost.denominator != 1:
                raise ValueError(f"message cost must be a whole number of ticks, got {cost}")
            cost = self._send_costs[key] = int(cost)
        return cost

    def finish_send(self, task, now: int, nbytes: int = 0):
        """Transmission complete: flip the status bit and, if the peer is
        polling on CPU right now, hand the message over immediately."""
        box = self._outbox(task)
        box.status_full = True
        box.message = Message(nbytes)
        self.sim.trace.add(now, task.sandbox.id, "msg_send", task.id, self._trace_detail)
        peer = self._peer(task)
        if peer is None:
            return
        sb = peer.sandbox
        if (isinstance(peer.step, PollWait) and peer.step.channel is self
                and sb.running is peer.vcpu and sb.running.current_work() is peer
                and sb.blocked_until <= now):
            sb.end_poll(peer, self.take(peer))

    def take(self, task) -> Message | None:
        """Consume the pending message, if any (no cost: the attempt's cost
        is charged by the caller's polling loop)."""
        box = self._inbox(task)
        if not box.status_full:
            return None
        box.status_full = False
        msg = box.message
        box.message = None
        self.sim.trace.add(self.sim.now, task.sandbox.id, "msg_recv", task.id,
                           self._trace_detail)
        return msg


def establish_channel(sim, sandbox_a: str, sandbox_b: str,
                      profile: ExchangeProfile | None = None) -> Channel:
    """Create (or return the existing) channel between two sandboxes.

    Establishment is a monitor call: one VM-Exit/VM-Entry pair is charged to
    whatever the requesting sandbox is currently running.  Re-establishing an
    existing pair is idempotent.
    """
    if sandbox_a == sandbox_b:
        raise SelfChannel(sandbox_a)
    sim.sandbox(sandbox_a)
    sim.sandbox(sandbox_b)
    key = (sandbox_a, sandbox_b) if sandbox_a < sandbox_b else (sandbox_b, sandbox_a)
    if key in sim.channels:
        return sim.channels[key]
    ch = Channel(sim, f"{sandbox_a}-{sandbox_b}", profile or ExchangeProfile())
    sim.channels[key] = ch
    sim.sandbox(sandbox_a).charge_running(sim.cost.vmexit_cost + sim.cost.vmentry_cost)
    return ch


def run_pingpong(sim, channel: Channel, exchanges: int, limit: int) -> list[int]:
    """Drive the simulation until the sender has recorded ``exchanges``
    round-trip samples (the run ends at the event that records the last
    one) or until ``limit``; returns the samples in ticks."""
    sender = channel.task_a

    def done() -> bool:
        return len(sender.rtt_samples) >= exchanges

    if not done() and sim.now < limit:
        sim.run_until(limit, stop=done)
    return [rtt for (_, _, rtt) in sender.rtt_samples[:exchanges]]


def rtt_samples_csv(samples) -> str:
    """Round-trip samples (a sender task's ``rtt_samples``) as CSV."""
    lines = ["exchange_idx,start_local_us,rtt_us"]
    lines.extend(f"{i},{t0},{rtt}" for i, t0, rtt in samples)
    return "\n".join(lines) + "\n"
