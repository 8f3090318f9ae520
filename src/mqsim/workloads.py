"""Task behavior programs: fixed-cost compute loops, paced message
exchanges, periodic samplers, and sleepers.  Each program is a generator of
workload steps driven by the scheduler."""

from __future__ import annotations

from mqsim.errors import ValidationError

WAIT_MODES = ("busy", "sleep")  # how a ping-pong task waits for a message


def busy_loop(iteration_cost: int = 10_000):
    """CPU-bound loop counting completed fixed-cost iterations (the frame
    processing stand-in)."""
    if iteration_cost < 1:
        raise ValidationError("iteration_cost must be >= 1: a free iteration "
                              "never lets simulated time pass")

    def program(api):
        while True:
            yield api.compute(iteration_cost)
            api.task.count("iterations")
    return program


def sleeper():
    """Parks immediately and re-parks whenever woken (an idle shell)."""
    def program(api):
        while True:
            yield api.park()
    return program


def periodic_logger(period: int = 1_000_000, work: int = 500):
    """Wakes at each period boundary, does a little bookkeeping, sleeps."""
    if period < 1:
        raise ValidationError(f"period must be >= 1, got {period!r}")

    def program(api):
        k = 1
        while True:
            yield api.sleep_until(k * period)
            yield api.compute(work)
            api.task.count("samples")
            k += 1
    return program


def io_cycle(compute: int = 1000, io_latency: int = 5000, io_work: int = 100):
    """Compute, then block on an I/O request handled by the sandbox's I/O VCPU."""
    if compute + io_latency < 1:
        raise ValidationError("compute + io_latency must be >= 1: a free cycle "
                              "never lets simulated time pass")

    def program(api):
        while True:
            yield api.compute(compute)
            yield api.block_io(io_latency, io_work)
            api.task.count("io_cycles")
    return program


def _sleep_poll(api, channel):
    """Sleep-poll for a message: pay the poll cost, check the mailbox, and
    sleep a poll interval while it is empty."""
    prof = channel.profile
    while True:
        yield api.compute(prof.poll_cost)
        if channel.take(api.task) is not None:
            return
        yield api.sleep_for(prof.poll_interval)


def _check_wait(wait: str):
    if wait not in WAIT_MODES:
        raise ValidationError(f"wait must be one of {WAIT_MODES}, got {wait!r}")


def pingpong_sender(channel, *, exchanges: int | None = None, busy_wait: int = 0,
                    initial_sleep: int = 0, pace: int | None = None,
                    wait: str = "busy"):
    """Request/response initiator.

    ``busy_wait`` burns budget before each send (moves the send's start
    inside the budget); ``pace`` aligns sends to fixed local-time boundaries;
    ``wait`` selects busy-polling or sleep-polling for the reply.  Round-trip
    times are recorded in the sender's local clock.
    """
    _check_wait(wait)
    if pace is not None and pace < 1:
        raise ValidationError(f"pace must be >= 1, got {pace!r}")

    def program(api):
        if initial_sleep:
            yield api.sleep_for(initial_sleep)
        i = 0
        while exchanges is None or i < exchanges:
            if pace is not None:
                now = api.local_now()
                yield api.sleep_until((now // pace + 1) * pace)
            if busy_wait:
                yield api.compute(busy_wait)
            t0 = api.local_now()
            yield api.send(channel)
            if wait == "busy":
                yield api.poll_wait(channel)
            else:
                yield from _sleep_poll(api, channel)
            rtt = api.local_now() - t0
            api.task.rtt_samples.append((i, t0, rtt))
            api.task.count("exchanges")
            i += 1
    return program


def pingpong_receiver(channel, *, initial_sleep: int = 0, wait: str = "busy"):
    """Responder: polls for a request, spends the service time, replies."""
    _check_wait(wait)

    def program(api):
        prof = channel.profile
        if initial_sleep:
            yield api.sleep_for(initial_sleep)
        while True:
            if wait == "busy":
                yield api.poll_wait(channel)
            else:
                yield from _sleep_poll(api, channel)
            if prof.k:
                yield api.compute(prof.k)
            yield api.send(channel)
            api.task.count("exchanges")
    return program
