"""Messages exchanged between workers and the parameter server.

Besides the fault-free :class:`PullUnit`, this module defines the
reliable-delivery vocabulary used when a
:class:`~repro.faults.plan.FaultPlan` is active: every push message
carries a per-worker :class:`PushMessage.seq` sequence number, the PS applies each
sequence number **at most once** (a retransmission whose original was
delivered — its ack lost — is recognised and only re-acknowledged), and
unacknowledged messages are retransmitted under the exponential-backoff
:class:`RetryPolicy`.  With no fault plan none of this machinery is
instantiated and push completion remains implicitly reliable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import ConfigurationError
from repro.sched.base import Segment, TransferUnit

__all__ = ["PullUnit", "PushMessage", "RetryPolicy"]


class PullUnit(NamedTuple):
    """One aggregated parameter range flowing PS → worker.

    The PS responds **per key** (per gradient segment), as BytePS does: a
    worker's pull for a byte range becomes available as soon as that range
    is aggregated from all workers — it does not wait for the rest of the
    push message it arrived in.  The pulls one push releases at one update
    delay reach their workers from a single engine event (a release
    wave).  The worker then *batches* pending pull units into one
    network message according to its strategy's granularity
    (:meth:`repro.sched.base.CommScheduler.pull_batch_limit`), keeping
    per-message overhead symmetric with the push direction, as the paper's
    Eq. (4) ``u = t + 2E`` assumes.

    A named tuple: one is built per pushed segment, and equality and
    hashing are by value (retry bookkeeping keys on the unit).
    """

    worker: int
    iteration: int
    segment: Segment
    created: float

    @property
    def total_bytes(self) -> float:
        return self.segment.nbytes

    @property
    def priority(self) -> int:
        """The parameter carried (gradient index; smaller = more urgent)."""
        return self.segment.grad


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/backoff parameters for reliable push delivery.

    A push attempt that completes its transfer without an acknowledgement
    within ``timeout * backoff**attempt`` seconds (capped at
    ``max_timeout``) is retransmitted.  ``max_retries`` bounds the number
    of retransmissions per message so a partitioned network fails the
    simulation loudly instead of livelocking it.
    """

    timeout: float = 25e-3
    backoff: float = 2.0
    max_timeout: float = 0.5
    max_retries: int = 30

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ConfigurationError(f"retry timeout must be positive, got {self.timeout}")
        if self.backoff < 1:
            raise ConfigurationError(f"retry backoff must be >= 1, got {self.backoff}")
        if self.max_timeout < self.timeout:
            raise ConfigurationError(
                f"max_timeout {self.max_timeout} must be >= timeout {self.timeout}"
            )
        if self.max_retries < 1:
            raise ConfigurationError(
                f"max_retries must be >= 1, got {self.max_retries}"
            )

    def timeout_for(self, attempt: int) -> float:
        """Retransmission timeout after ``attempt`` (0-based) sends."""
        return min(self.max_timeout, self.timeout * self.backoff**attempt)


@dataclass
class PushMessage:
    """One committed push and its delivery state (fault mode only).

    The scheduler debits the unit's bytes exactly once, at commit time;
    ``attempts`` counts transmissions of the *same* bytes, so every
    retransmission carries identical segments/offsets and the PS's
    cumulative-offset invariants hold across retries.
    """

    seq: int
    iteration: int
    unit: TransferUnit
    attempts: int = 0
    acked: bool = False
    delivered: bool = False
