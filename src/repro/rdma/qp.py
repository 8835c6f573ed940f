"""Queue pairs and packet-sequence-number (PSN) handling.

RoCEv2 requesters stamp every packet with a 24-bit PSN; responders track the
expected PSN per queue pair.  The DART prototype keeps a per-collector PSN
counter in a Tofino register array (paper section 6) so that the stream of
switch-crafted packets looks like a well-formed requester to the NIC.

We model the responder side of an unreliable-connection-style flow, which is
how switch-generated RDMA deployments run in practice (TEA, SIGCOMM'20):
acknowledgements and retransmission are disabled, duplicates are dropped,
and a configurable policy decides whether a PSN gap invalidates the QP or is
tolerated.  DART is loss-tolerant by design (redundant slots), so the
default policy resynchronises to the received PSN after a gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

#: PSNs are 24-bit counters, compared modulo this.
PSN_MODULUS = 1 << 24


def psn_distance(expected: int, received: int) -> int:
    """Forward distance from ``expected`` to ``received`` modulo 2**24.

    0 means in-order; values in the "behind" half of the ring indicate a
    duplicate / stale packet.
    """
    return (received - expected) % PSN_MODULUS


def psn_run(start: int, count: int) -> np.ndarray:
    """``count`` consecutive 24-bit sequence numbers from ``start``, wrapped.

    The array form of a requester's PSN counter (and a responder's MSN
    counter): element ``i`` is ``(start + i) % 2**24``, as ``uint32``.
    """
    return ((start + np.arange(count, dtype=np.int64)) % PSN_MODULUS).astype(
        np.uint32
    )


class PsnPolicy(Enum):
    """Responder behaviour when a packet's PSN is not the expected one."""

    #: Accept any forward jump, resynchronising to it (tolerates loss).
    RESYNC_ON_GAP = "resync_on_gap"
    #: Drop anything that is not exactly the expected PSN.
    STRICT = "strict"
    #: Ignore PSNs entirely (pure datagram-style ingestion).
    IGNORE = "ignore"


class QueuePairState(Enum):
    """Lifecycle state of a queue pair."""

    RESET = "reset"
    READY = "ready"
    ERROR = "error"


@dataclass
class QueuePair:
    """Responder-side queue pair state.

    Parameters
    ----------
    qp_number:
        The 24-bit destination QP number switches put in the BTH.
    expected_psn:
        Next PSN the responder expects; advertised to the control plane at
        connection bring-up so switches can initialise their PSN registers.
    policy:
        How PSN gaps and duplicates are treated (see :class:`PsnPolicy`).
    """

    qp_number: int
    expected_psn: int = 0
    policy: PsnPolicy = PsnPolicy.RESYNC_ON_GAP
    state: QueuePairState = QueuePairState.READY
    #: The connected peer's QP number (responses are addressed to it).
    #: Defaults to our own number, the convention the switch models use.
    peer_qp: Optional[int] = None
    #: Responder message sequence number, stamped into AETH headers.
    msn: int = 0
    #: Whether executed atomics produce an ATOMIC ACKNOWLEDGE response
    #: carrying the original value.  Off by default: DART's fire-and-forget
    #: counter updates never read the response, but the Append primitive's
    #: tail reservation depends on it.
    respond_atomics: bool = False
    accepted: int = 0
    duplicates_dropped: int = 0
    gaps_observed: int = 0
    stale_window: int = field(default=PSN_MODULUS // 2, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.qp_number < PSN_MODULUS:
            raise ValueError(f"qp_number {self.qp_number} does not fit in 24 bits")
        if not 0 <= self.expected_psn < PSN_MODULUS:
            raise ValueError(f"expected_psn {self.expected_psn} out of range")

    def accept(self, psn: int) -> bool:
        """Process an arriving PSN; returns whether the packet is accepted.

        On acceptance the expected PSN advances past the received one.
        """
        if self.state is not QueuePairState.READY:
            return False
        if self.policy is PsnPolicy.IGNORE:
            self.accepted += 1
            return True
        distance = psn_distance(self.expected_psn, psn)
        if distance == 0:
            self.expected_psn = (psn + 1) % PSN_MODULUS
            self.accepted += 1
            return True
        if distance >= self.stale_window:
            # Behind the expected PSN: a duplicate or very stale packet.
            self.duplicates_dropped += 1
            return False
        # Forward gap: some packets were lost on the way.
        self.gaps_observed += 1
        if self.policy is PsnPolicy.STRICT:
            self.state = QueuePairState.ERROR
            return False
        self.expected_psn = (psn + 1) % PSN_MODULUS
        self.accepted += 1
        return True

    def accept_array(self, psns) -> np.ndarray:
        """Vectorised :meth:`accept` over a PSN sequence in arrival order.

        Returns a boolean array, one entry per PSN, identical to calling
        :meth:`accept` on each in order.  Strictly consecutive sequences
        starting at the expected PSN -- the shape every healthy batch has
        -- advance the QP in O(1); the gaps, duplicates and swaps of an
        impaired fabric are judged in one pass.  Only a gap under
        ``STRICT`` or a PSN from behind the batch's start falls back to
        the exact scalar state machine.
        """
        psns = np.asarray(psns, dtype=np.int64)
        count = len(psns)
        if count and self.state is QueuePairState.READY:
            if self.policy is PsnPolicy.IGNORE:
                self.accepted += count
                return np.ones(count, dtype=bool)
            expected = (
                self.expected_psn + np.arange(count, dtype=np.int64)
            ) % PSN_MODULUS
            if np.array_equal(psns, expected):
                self.expected_psn = int((psns[-1] + 1) % PSN_MODULUS)
                self.accepted += count
                return np.ones(count, dtype=bool)
            # Distances from the batch's start.  With all of them inside
            # the stale window both ways round, a PSN is accepted when it
            # lies beyond everything before it, a gap when it skips one.
            ahead = (psns - self.expected_psn) % PSN_MODULUS
            furthest = int(ahead.max())
            if furthest < min(self.stale_window, PSN_MODULUS - self.stale_window):
                before = np.concatenate(([-1], np.maximum.accumulate(ahead)[:-1]))
                jumps = ahead - before
                gaps = int(np.count_nonzero(jumps > 1))
                if not gaps or self.policy is PsnPolicy.RESYNC_ON_GAP:
                    accepted = jumps > 0
                    landed = int(np.count_nonzero(accepted))
                    self.accepted += landed
                    self.duplicates_dropped += count - landed
                    self.gaps_observed += gaps
                    self.expected_psn = (self.expected_psn + furthest + 1) % PSN_MODULUS
                    return accepted
        return np.fromiter(
            (self.accept(int(psn)) for psn in psns), dtype=bool, count=count
        )

    @property
    def effective_peer_qp(self) -> int:
        """The QP number responses are addressed to."""
        return self.qp_number if self.peer_qp is None else self.peer_qp

    def next_msn(self) -> int:
        """Advance and return the responder MSN (for AETH headers)."""
        self.msn = (self.msn + 1) % PSN_MODULUS
        return self.msn

    def reset(self, initial_psn: int) -> None:
        """Return the QP to READY with a fresh expected PSN."""
        if not 0 <= initial_psn < PSN_MODULUS:
            raise ValueError(f"initial_psn {initial_psn} out of range")
        self.expected_psn = initial_psn
        self.state = QueuePairState.READY
