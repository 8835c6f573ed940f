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

from time import perf_counter
from typing import Dict, Optional, Tuple

from repro import obs
from repro.core.addressing import DartAddressing
from repro.obs.metrics import LATENCY_BUCKETS
from repro.core.config import DartConfig
from repro.core.policies import QueryResult, ReturnPolicy, fold_slots
from repro.collector.collector import CollectorCluster
from repro.fabric.fabric import Fabric, InlineFabric
from repro.hashing.hash_family import Key
from repro.rdma.packets import (
    Bth,
    EthernetHeader,
    Ipv4Header,
    Opcode,
    PacketDecodeError,
    Reth,
    RoceV2Packet,
    UdpHeader,
)
from repro.rdma.qp import PSN_MODULUS

#: Reporter-ID namespace for operator query stations, disjoint from
#: switch IDs so their per-collector QPs never collide with reporting QPs.
OPERATOR_REPORTER_BASE = 0x8000


class RemoteQueryClient:
    """Executes DART queries entirely over one-sided RDMA READs.

    Parameters
    ----------
    config:
        The shared deployment configuration.
    cluster:
        The collector fleet (used as the wire: frames in, responses out).
    operator_id:
        Distinguishes query stations; each gets its own per-collector QPs.
    policy:
        Default return policy, as in :class:`~repro.core.client.DartQueryClient`.
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
        loss=None,
        max_retries: int = 0,
        fabric: Optional[Fabric] = None,
    ) -> None:
        if operator_id < 0:
            raise ValueError("operator_id must be non-negative")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        # Unlike switches, the operator host is a normal reliable
        # requester: lost READs (modelled by ``loss``, a
        # :class:`~repro.network.simulation.LossModel`) are retried up to
        # ``max_retries`` times with fresh PSNs.
        self._loss = loss
        self.max_retries = max_retries
        self.config = config
        self.cluster = cluster
        if fabric is None:
            fabric = cluster.attach_to(InlineFabric())
        self.fabric = fabric
        self.addressing = DartAddressing(config)
        self._codec = config.slot_codec()
        self.policy = policy
        self.mac = f"02:0e:{(operator_id >> 8) & 0xFF:02x}:{operator_id & 0xFF:02x}:00:01"
        self.ip = f"192.168.{(operator_id >> 8) & 0xFF}.{operator_id & 0xFF}"
        registry = obs.get_registry()
        self._registry = registry
        self._labels = registry.instance_labels("RemoteQueryClient")
        #: Key queries executed over one-sided READs.
        self.c_queries = registry.counter(
            "remote_queries_executed", labels=self._labels
        )
        #: READ request frames issued (retries included).
        self.c_reads_sent = registry.counter(
            "remote_read_requests", labels=self._labels
        )
        #: READ retries after a lost request or response.
        self.c_retries = registry.counter(
            "remote_read_retries", labels=self._labels
        )
        #: Per-policy (total, answered) counters, created on first use.
        self._policy_counters: Dict[str, Tuple[object, object]] = {}
        self._h_query_seconds = registry.histogram(
            "stage_seconds",
            LATENCY_BUCKETS,
            labels={"stage": "remote_query"},
            help="wall-clock seconds per one-sided remote query",
        )

        self._qps: Dict[int, int] = {}  # collector -> our QP number there
        self._psns: Dict[int, int] = {}
        for collector in cluster:
            qp = collector.create_reporter_qp(
                OPERATOR_REPORTER_BASE + operator_id
            )
            self._qps[collector.collector_id] = qp.qp_number
            self._psns[collector.collector_id] = qp.expected_psn

    def __repr__(self) -> str:
        return f"RemoteQueryClient(ip={self.ip!r}, policy={self.policy})"

    @property
    def queries_executed(self) -> int:
        """Key queries executed over one-sided READs (registry-backed)."""
        return self.c_queries.value

    @property
    def read_requests_sent(self) -> int:
        """READ request frames issued, retries included (registry-backed)."""
        return self.c_reads_sent.value

    @property
    def retries_performed(self) -> int:
        """READ retries after a lost request or response (registry-backed)."""
        return self.c_retries.value

    def _counters_for(self, policy: ReturnPolicy):
        """The (total, answered) counter pair for one return policy."""
        pair = self._policy_counters.get(policy.name)
        if pair is None:
            labels = self._labels + (("policy", policy.name),)
            pair = (
                self._registry.counter("queries_total", labels=labels),
                self._registry.counter("queries_answered", labels=labels),
            )
            self._policy_counters[policy.name] = pair
        return pair

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------

    def _read_slot_remote(self, collector_id: int, slot_index: int) -> Optional[bytes]:
        """One RDMA READ for one slot, with retries; None if all failed."""
        for attempt in range(self.max_retries + 1):
            if attempt:
                self.c_retries.inc()
            payload = self._read_once(collector_id, slot_index)
            if payload is not None:
                return payload
        return None

    def _read_once(self, collector_id: int, slot_index: int) -> Optional[bytes]:
        """A single RDMA READ round trip (may be lost on either leg)."""
        collector = self.cluster[collector_id]
        endpoint = collector.endpoint
        psn = self._psns[collector_id]
        self._psns[collector_id] = (psn + 1) % PSN_MODULUS
        request = RoceV2Packet(
            eth=EthernetHeader(dst_mac=endpoint.mac, src_mac=self.mac),
            ipv4=Ipv4Header(src_ip=self.ip, dst_ip=endpoint.ip),
            udp=UdpHeader(src_port=0xD000),
            bth=Bth(
                opcode=int(Opcode.RC_RDMA_READ_REQUEST),
                dest_qp=self._qps[collector_id],
                psn=psn,
            ),
            reth=Reth(
                virtual_address=self.addressing.slot_address(
                    endpoint.base_address, slot_index
                ),
                rkey=endpoint.rkey,
                dma_length=self.config.slot_bytes,
            ),
        )
        self.c_reads_sent.inc()
        if self._loss is not None and not self._loss.deliver():
            return None  # request lost on the wire
        if self.fabric.send(collector_id, request.pack()) is False:
            return None  # delivered synchronously and rejected by the NIC
        if self._loss is not None and not self._loss.deliver():
            self.fabric.poll(collector_id)  # response lost on the wire
            return None
        responses = self.fabric.poll(collector_id)
        if not responses:
            return None
        try:
            response = RoceV2Packet.unpack(responses[-1])
        except PacketDecodeError:
            return None
        if response.bth.opcode != Opcode.RC_RDMA_READ_RESPONSE_ONLY:
            return None
        if response.bth.psn != psn:
            return None  # response to someone else's request
        return response.payload

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------

    def query(self, key: Key, policy: Optional[ReturnPolicy] = None) -> QueryResult:
        """The standard four-step DART query, executed over the wire."""
        if policy is None:
            policy = self.policy
        timed = self._h_query_seconds.enabled
        if timed:
            started = perf_counter()
        addressing = self.addressing
        collector_id = addressing.collector_of(key)
        reads = (
            self._read_slot_remote(collector_id, addressing.slot_index(key, n))
            for n in range(self.config.redundancy)
        )
        # A lost READ is treated like an overwritten slot.
        raws = [raw for raw in reads if raw is not None]
        self.c_queries.inc()
        result = fold_slots(
            self._codec, raws, addressing.checksum_of(key), policy
        )
        total, answered = self._counters_for(policy)
        total.inc()
        if result.answered:
            answered.inc()
        if timed:
            self._h_query_seconds.observe(perf_counter() - started)
        return result

    def query_value(self, key: Key, policy: Optional[ReturnPolicy] = None) -> Optional[bytes]:
        """Convenience: the value, or ``None`` on an empty return."""
        return self.query(key, policy=policy).value

    def query_many(
        self, keys, policy: Optional[ReturnPolicy] = None
    ) -> Dict[Key, QueryResult]:
        """Batch remote queries: ``{key: QueryResult}`` per distinct key.

        Mirrors :meth:`DartQueryClient.query_many
        <repro.core.client.DartQueryClient.query_many>` so operator sweeps
        can switch between local and one-sided querying without changes.
        """
        results: Dict[Key, QueryResult] = {}
        for key in keys:
            if key not in results:
                results[key] = self.query(key, policy=policy)
        return results
