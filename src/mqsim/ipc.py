"""Shared-memory mailbox channels between sandboxes.

A channel is a pair of depth-1 mailboxes mapped into exactly two sandboxes;
each mailbox is one status bit, and a message is only its send's work in
ticks (scenario files give bytes, which ``load_scenario`` converts).
Arrival is observed by polling: a task either busy-waits (consuming budget
until the status bit flips) or sleep-polls at an interval, paying a fixed
cost per attempt.  Round-trip samples are recorded by the sender's workload
in its local clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from mqsim.errors import AccessDenied, MailboxFull, SelfChannel, ValidationError
from mqsim.sched import PollWait


@dataclass(frozen=True)
class ExchangeProfile:
    """Works and polling costs of one request/response pattern, in ticks."""
    request_work: int = 256   # the sender's send: 2048 bytes at 1/8 tick each
    response_work: int = 256  # the receiver's send
    k: int = 0                # receiver service time per request
    poll_cost: int = 10
    poll_interval: int = 500

    def __post_init__(self):
        # a free exchange or a free poll would let the tasks trade messages
        # or poll forever without simulated time passing
        works = (self.request_work, self.response_work, self.k)
        if (min(*works, self.poll_cost, self.poll_interval) < 0 or sum(works) == 0
                or self.poll_cost + self.poll_interval == 0):
            raise ValidationError(f"works and poll costs must be >= 0, and an "
                                  f"exchange and a poll must take time: {self}")


@dataclass
class Channel:
    sim: object
    id: str
    profile: ExchangeProfile
    task_a: object = None
    task_b: object = None
    # the status bit of the mailbox to side a (index 0) and to side b (1)
    full: list = field(default_factory=lambda: [False, False])
    # the detail of every msg_send and msg_recv row
    _trace_detail: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._trace_detail = f"ch={self.id}"

    def bind(self, task_a, task_b):
        self.task_a, self.task_b = task_a, task_b

    def _side(self, task) -> int:
        if task is self.task_a:
            return 0
        if task is self.task_b:
            return 1
        raise AccessDenied(f"task {task.id} is not an endpoint of channel {self.id}")

    # -- operations ---------------------------------------------------------

    def send_work(self, task) -> int:
        """Execution ticks ``task``'s send costs; checked at send start."""
        side = self._side(task)
        if self.full[1 - side]:
            raise MailboxFull(f"channel {self.id}: previous message not consumed")
        return self.profile.response_work if side else self.profile.request_work

    def finish_send(self, task, now: int):
        """Transmission complete: flip the status bit and, if the peer is
        polling on CPU right now, hand the message over immediately."""
        side = self._side(task)
        self.full[1 - side] = True
        self.sim.trace.add(now, task.sandbox.id, "msg_send", task.id, self._trace_detail)
        peer = self.task_a if side else self.task_b
        sb = peer.sandbox
        if (isinstance(peer.step, PollWait) and peer.step.channel is self
                and sb.running is peer.vcpu and sb.running.current_work() is peer
                and sb.blocked_until <= now):
            self.take(peer)
            sb.end_poll(peer)

    def take(self, task) -> bool | None:
        """Consume the pending message: True, or None when the mailbox is
        empty (no cost: the attempt's cost is charged by the caller's
        polling loop)."""
        side = self._side(task)
        if not self.full[side]:
            return None
        self.full[side] = False
        self.sim.trace.add(self.sim.now, task.sandbox.id, "msg_recv", task.id,
                           self._trace_detail)
        return True


def establish_channel(sim, sandbox_a: str, sandbox_b: str,
                      profile: ExchangeProfile | None = None) -> Channel:
    """Create (or return the existing) channel between two sandboxes.

    Establishment is a monitor call: one VM-Exit/VM-Entry pair is charged to
    whatever the requesting sandbox is currently running.  Re-establishing an
    existing pair is idempotent; asking for it with another profile is a
    ``ValidationError``.
    """
    if sandbox_a == sandbox_b:
        raise SelfChannel(sandbox_a)
    sim.sandbox(sandbox_a)
    sim.sandbox(sandbox_b)
    key = (sandbox_a, sandbox_b) if sandbox_a < sandbox_b else (sandbox_b, sandbox_a)
    profile = profile or ExchangeProfile()
    ch = sim.channels.get(key)
    if ch is not None:
        if ch.profile != profile:
            raise ValidationError(f"channel {ch.id} has another profile")
        return ch
    ch = Channel(sim, f"{sandbox_a}-{sandbox_b}", profile)
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
