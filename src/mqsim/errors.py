"""Exception types shared across the simulator and the analytic engine."""


class MqsimError(Exception):
    """Base class for all simulator errors."""


# --- event core ---

class PastTimestamp(MqsimError):
    """An event was posted with a fire time earlier than the current time."""


class UnknownSandbox(MqsimError):
    """A sandbox id does not name a registered sandbox."""


class SelfIpi(MqsimError):
    """An IPI was addressed to the sandbox that sent it."""


# --- trace ---

class RowsNotKept(MqsimError):
    """A trace was asked for bytes its mode does not keep: the CSV of a trace
    that keeps no rows, or the hash of one that discards them."""


# --- scheduling ---

class MalformedVcpu(MqsimError):
    """VCPU parameters violate 0 < C <= T."""


class OverConsume(MqsimError):
    """A VCPU was charged more budget than it holds (and no overrun is permitted)."""


class NotIoVcpu(MqsimError):
    """Priority inheritance was requested on a VCPU that is not an I/O VCPU."""


class SchedulerFault(MqsimError):
    """The scheduler reached a state its own rules exclude: a budget above
    capacity, a step run past its end, or an advance of no time."""


# --- channels ---

class SelfChannel(MqsimError):
    """Both channel endpoints name the same sandbox."""


class AccessDenied(MqsimError):
    """A task touched a channel it is not an endpoint of."""


class MailboxFull(MqsimError):
    """A send was attempted while the previous message is still undelivered."""


# --- analytic bounds ---

class DegenerateInput(MqsimError):
    """Round-trip analysis was asked for a zero-length request."""


# --- migration ---

class NotEligible(MqsimError):
    """The VCPU is runnable with budget, so its address space may not migrate."""


class BlockedOnIo(MqsimError):
    """A task of the address space is waiting on I/O, which blocks migration."""


class DestinationBusy(MqsimError):
    """The destination sandbox already has an in-flight migration job."""


# --- scenarios ---

class ParseError(MqsimError):
    """A scenario file could not be parsed."""


class ValidationError(MqsimError):
    """A scenario file, or an argument given in code, violates an invariant."""
