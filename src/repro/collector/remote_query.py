"""Zero-CPU *queries*: reading DART slots over one-sided RDMA READ.

The paper's design runs queries on the collector CPU (section 3.2) -- the
only CPU involvement left in the system.  One-sided READs remove even
that: since slot addresses are a pure function of the key, an operator
machine can issue RDMA READ requests for the N slots directly, and the
collector NIC serves them from registered memory without waking the host.
This is a natural companion to the section-7 discussion of richer
one-sided protocols, and it demonstrates that the *entire* telemetry loop
-- report, store, query -- can bypass collector CPUs.

The trade (why the paper runs queries locally): N READ round-trips per
query instead of N local memory reads, so remote queries cost wire
latency and bandwidth; they win when collectors are headless or the query
fan-out is small.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.collector.collector import CollectorCluster
from repro.core.client import DartQueryClient
from repro.core.config import DartConfig
from repro.core.policies import ReturnPolicy
from repro.fabric.fabric import Fabric, InlineFabric
from repro.primitives.clients import OneSidedReader
from repro.primitives.translator import ResponseDemux

#: Requester QP number of operator station 0 on every collector NIC,
#: above the per-switch reporting QPs (``0x10000 + switch_id``) so the two
#: never collide.
OPERATOR_REPORTER_BASE = 0x18000


class RemoteQueryClient(DartQueryClient):
    """A :class:`DartQueryClient` whose slot reads are one-sided RDMA READs.

    The query itself -- addressing, the lost-read filter, the checksum +
    return-policy fold, counters, timing and the ``client.query`` span --
    is the inherited one; this class only supplies the ``SlotReader``: one
    :class:`~repro.primitives.clients.OneSidedReader` per collector, each
    on its own ``PsnPolicy.IGNORE`` requester QP (READs are idempotent, so
    a reader needs no responder-side sequencing).  Two stations with the
    same ``operator_id`` on one cluster would share QPs, so the second
    construction raises ``ValueError``.

    Loss is whatever ``fabric`` models: pass an
    :class:`~repro.fabric.ImpairedFabric` to lose READs.  It impairs the
    request leg; the response leg is lossless (the ``OneSidedReader``
    contract), so a missing response means the READ never executed.

    Series: queries count under the inherited
    ``client_queries_executed{kind=RemoteQueryClient}``, the per-policy
    ``queries_total`` / ``queries_answered`` and
    ``stage_seconds{stage=client.query}``; READ frames under the readers'
    ``primitive_read_requests``; retries under ``remote_read_retries``.

    Parameters
    ----------
    config:
        The shared deployment configuration.
    cluster:
        The collector fleet to read from.
    operator_id:
        Distinguishes query stations; each gets its own per-collector QPs.
    policy:
        Default return policy, as in :class:`DartQueryClient`.
    max_retries:
        Unlike switches, the operator host is a normal reliable requester:
        a lost READ is re-issued up to this many times.
    fabric:
        The transport READ requests and responses traverse.  Defaults to a
        private :class:`~repro.fabric.InlineFabric` over the cluster; pass
        a shared fabric (already attached to the cluster) to model queries
        and reports riding the same links.
    """

    def __init__(
        self,
        config: DartConfig,
        cluster: CollectorCluster,
        operator_id: int = 0,
        policy: ReturnPolicy = ReturnPolicy.PLURALITY,
        max_retries: int = 0,
        fabric: Optional[Fabric] = None,
    ) -> None:
        if operator_id < 0:
            raise ValueError("operator_id must be non-negative")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        super().__init__(config, self._read_slot, policy)
        self.cluster = cluster
        self.max_retries = max_retries
        if fabric is None:
            fabric = cluster.attach_to(InlineFabric())
        self.fabric = fabric
        #: collector -> the reader on its NIC.
        self._readers: Dict[int, OneSidedReader] = {
            collector.collector_id: OneSidedReader(
                fabric,
                collector.collector_id,
                collector.nic,
                OPERATOR_REPORTER_BASE + operator_id,
                ResponseDemux(),
                collector.region.rkey,
            )
            for collector in cluster
        }
        #: READ retries after a lost request.
        self.c_retries = self._registry.counter(
            "remote_read_retries", labels=self._labels
        )

    def __repr__(self) -> str:
        return f"RemoteQueryClient(fabric={self.fabric!r}, policy={self.policy})"

    @property
    def read_requests_sent(self) -> int:
        """READ request frames issued, retries included (registry-backed)."""
        return sum(reader.c_reads_sent.value for reader in self._readers.values())

    @property
    def retries_performed(self) -> int:
        """READ retries after a lost request (registry-backed)."""
        return self.c_retries.value

    def _read_slot(self, collector_id: int, slot_index: int) -> Optional[bytes]:
        """One slot over the wire, with retries; ``None`` if all were lost."""
        reader = self._readers[collector_id]
        base_address = self.cluster[collector_id].region.base_address
        addresses = [self.addressing.slot_address(base_address, slot_index)]
        for attempt in range(self.max_retries + 1):
            if attempt:
                self.c_retries.inc()
            payloads, answered = reader.read_run(addresses, self.config.slot_bytes)
            if answered[0]:
                return payloads[0].tobytes()
        return None
