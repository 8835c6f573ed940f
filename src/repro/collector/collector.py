"""Collector hosts and the collector fleet.

Each collector contributes one registered memory region organised as
``slots_per_collector`` fixed-size slots, fronted by a software RNIC
(:class:`~repro.rdma.nic.RdmaNic`).  Switch-crafted RoCEv2 frames are
delivered to :meth:`Collector.receive_frame`; queries read slots locally
through :meth:`Collector.read_slot` -- the only point where the collector's
own CPU touches telemetry data, exactly as in the paper.

:class:`CollectorCluster` builds the fleet a :class:`DartConfig` describes
and keeps its role map; :meth:`Collector.endpoint_for` derives the one
lookup-table row a given switch reaches a host through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import obs
from repro.core.config import DartConfig
from repro.fabric.fabric import Fabric
from repro.mem.region import MemoryRegion
from repro.rdma.nic import RdmaNic
from repro.rdma.qp import PsnPolicy, QueuePair

#: Default virtual address where collectors register their region.  Any
#: value works; it is advertised through the endpoint table.
DEFAULT_BASE_ADDRESS = 0x100000


@dataclass(frozen=True)
class CollectorEndpoint:
    """Everything a switch needs to craft RoCEv2 reports for one collector.

    This is the row format of the "global collector lookup table" the paper
    keeps as a match-action table in switch SRAM (section 6, ~20 bytes per
    collector).
    """

    collector_id: int
    mac: str
    ip: str
    qp_number: int
    rkey: int
    base_address: int


class Collector:
    """One collector host: registered region + RNIC + per-switch responder QPs.

    ``collector_id`` is the host's *node* identity (its addresses and rkey
    derive from it).  Which keyspace role -- hash slot in
    ``[0, num_collectors)`` -- the host currently serves is fleet state
    kept by :class:`CollectorCluster`; for the initial active fleet the two
    coincide, while standby hosts carry node IDs beyond the keyspace.

    ``standby=True`` builds a warm spare: the host is fully provisioned
    (region, NIC) but owns no keyspace role until a failover or drain
    promotes it, so its node ID may lie outside ``[0, num_collectors)``.
    """

    def __init__(
        self,
        config: DartConfig,
        collector_id: int,
        *,
        base_address: int = DEFAULT_BASE_ADDRESS,
        psn_policy: PsnPolicy = PsnPolicy.RESYNC_ON_GAP,
        standby: bool = False,
    ) -> None:
        if standby:
            if collector_id < 0:
                raise ValueError(
                    f"standby collector_id must be non-negative, got {collector_id}"
                )
        elif not 0 <= collector_id < config.num_collectors:
            raise ValueError(
                f"collector_id {collector_id} outside [0, {config.num_collectors})"
            )
        self.config = config
        self.collector_id = collector_id
        #: Host liveness: a dead collector's NIC neither executes nor
        #: responds (see :meth:`fail` / :meth:`recover`).
        self.alive = True
        self._psn_policy = psn_policy
        self._codec = config.slot_codec()
        # Everything this host builds captures its metrics under a
        # ``node="collector-<id>"`` label, so fleet views can attribute
        # region/NIC/QP counters to the owning host.
        with obs.get_registry().node_scope(f"collector-{collector_id}"):
            self.region = MemoryRegion(
                size=config.region_bytes,
                base_address=base_address,
                rkey=0x1000 + collector_id,
            )
            octet_hi, octet_lo = divmod(collector_id % 65025, 255)
            self.nic = RdmaNic(
                self.region,
                mac=f"02:da:47:00:{octet_hi:02x}:{octet_lo:02x}",
                ip=f"10.{(collector_id >> 16) & 0xFF}."
                f"{(collector_id >> 8) & 0xFF}.{collector_id & 0xFF}",
            )

    def __repr__(self) -> str:
        return (
            f"Collector(id={self.collector_id}, "
            f"slots={self.config.slots_per_collector})"
        )

    def create_reporter_qp(self, reporter_id: int) -> QueuePair:
        """A dedicated responder QP for one reporting switch.

        RoCEv2 sequences PSNs per queue pair, so each switch-collector
        association needs its own QP -- otherwise independent switches'
        PSN streams would look like duplicates of each other.  Idempotent
        per reporter.
        """
        if reporter_id < 0:
            raise ValueError("reporter_id must be non-negative")
        qp_number = 0x10000 + reporter_id
        existing = self.nic.queue_pair(qp_number)
        if existing is not None:
            return existing
        with obs.get_registry().node_scope(f"collector-{self.collector_id}"):
            return self.nic.create_queue_pair(
                QueuePair(qp_number=qp_number, policy=self._psn_policy)
            )

    def endpoint_for(self, switch_id: int) -> Tuple[CollectorEndpoint, int]:
        """Switch ``switch_id``'s lookup-table row for this host, and its PSN seed.

        The row addresses the switch's own responder QP (created on first
        use, see :meth:`create_reporter_qp`); the seed is that QP's
        expected PSN, which the switch's PSN register must start from.
        Bring-up and failover plans both derive rows here.
        """
        qp = self.create_reporter_qp(switch_id)
        endpoint = CollectorEndpoint(
            collector_id=self.collector_id,
            mac=self.nic.mac,
            ip=self.nic.ip,
            qp_number=qp.qp_number,
            rkey=self.region.rkey,
            base_address=self.region.base_address,
        )
        return endpoint, qp.expected_psn

    # ------------------------------------------------------------------
    # Failure injection (host-level chaos for the fleet controller)
    # ------------------------------------------------------------------

    def fail(self) -> None:
        """Kill the host: every frame delivered from now on is lost.

        Models a crashed or partitioned collector -- the NIC stops
        executing and stops responding, which is exactly the silent
        blackhole the :mod:`repro.control` failure detector exists to
        catch.  Counters on the NIC do not advance (a dead host counts
        nothing).
        """
        self.alive = False

    def recover(self) -> None:
        """Bring the host back up (its DRAM contents are *not* trusted).

        A recovered collector rejoins the fleet as a standby via
        :meth:`CollectorCluster.readmit`; the epoch it missed stays lost.
        """
        self.alive = True

    # ------------------------------------------------------------------
    # Data plane (zero CPU): frames land via the NIC
    # ------------------------------------------------------------------

    def receive_frame(self, frame: bytes) -> bool:
        """Deliver one wire frame to the collector's NIC.

        This is the collector's :class:`~repro.fabric.FabricPort` ingest
        surface; senders reach it through a fabric rather than calling it
        directly.  Frames offered to a dead host vanish (returns False
        without touching the NIC).
        """
        if not self.alive:
            return False
        return self.nic.receive_frame(frame)

    def ingest_many(self, frames) -> int:
        """Looped :meth:`receive_frame`; kept only as a `perf/` trace boundary."""
        return sum(self.receive_frame(frame) for frame in frames)

    def ingest_batch(self, batch) -> int:
        """Columnar frame delivery (``Fabric.send_batch``); executed count.

        Same liveness gate as the scalar paths: a dead host drops the
        whole batch without touching NIC counters.
        """
        if not self.alive:
            return 0
        return self.nic.ingest_batch(batch)

    def transmit(self) -> list:
        """Drain the NIC's outbound responses (frames and READ-response
        batches, see :meth:`RdmaNic.transmit`) for the fabric.

        A dead host transmits nothing -- its queued responses are lost
        with it.
        """
        if not self.alive:
            return []
        return self.nic.transmit()

    # ------------------------------------------------------------------
    # Query plane (collector CPU): local slot reads
    # ------------------------------------------------------------------

    def read_slot(self, slot_index: int) -> bytes:
        """Raw bytes of one slot, read locally by the query engine."""
        if not 0 <= slot_index < self.config.slots_per_collector:
            raise ValueError(
                f"slot_index {slot_index} outside "
                f"[0, {self.config.slots_per_collector})"
            )
        slot_bytes = self.config.slot_bytes
        return self.region.read_offset(slot_index * slot_bytes, slot_bytes)

    def write_slot(self, slot_index: int, payload: bytes) -> None:
        """Direct local slot write -- the in-process fast path for stores.

        Packet-level deployments never call this; it exists so that the
        statistical and application layers can skip wire encoding.
        """
        if len(payload) != self.config.slot_bytes:
            raise ValueError(
                f"payload of {len(payload)} bytes does not match slot size "
                f"{self.config.slot_bytes}"
            )
        if not 0 <= slot_index < self.config.slots_per_collector:
            raise ValueError(
                f"slot_index {slot_index} outside "
                f"[0, {self.config.slots_per_collector})"
            )
        self.region.write_offset(slot_index * self.config.slot_bytes, payload)

    def clear(self) -> None:
        """Zero the region (start a fresh epoch)."""
        self.region.clear()


class CollectorCluster:
    """The collector fleet for one deployment config.

    The cluster separates two identities the static design conflated:

    - a **role** is a keyspace slot in ``[0, num_collectors)`` -- what
      :meth:`~repro.core.addressing.DartAddressing.collector_of` returns
      and what switches match in their lookup tables;
    - a **node** is a physical collector host, identified by
      :attr:`Collector.collector_id`.

    Initially role ``i`` is served by node ``i``.  ``num_standbys`` extra
    hosts (node IDs ``num_collectors ..``) are provisioned as warm spares;
    a failover :meth:`promote`\\ s a standby into a dead node's role, and a
    recovered host is :meth:`readmit`\\ ted as a standby.  All role-keyed
    accessors (:meth:`read_slot`, :meth:`node_for`, iteration, indexing)
    resolve through the *live* role map, so nothing above this layer can
    hold a stale node reference across a failover.
    """

    def __init__(
        self, config: DartConfig, *, num_standbys: int = 0, **collector_kwargs
    ) -> None:
        if num_standbys < 0:
            raise ValueError(f"num_standbys must be >= 0, got {num_standbys}")
        self.config = config
        self._nodes: List[Collector] = [
            Collector(config, collector_id, **collector_kwargs)
            for collector_id in range(config.num_collectors)
        ]
        for index in range(num_standbys):
            node_id = config.num_collectors + index
            self._nodes.append(
                Collector(config, node_id, standby=True, **collector_kwargs)
            )
        #: role -> node id currently serving it (identity at bring-up).
        self._role_map: List[int] = list(range(config.num_collectors))
        #: Node IDs available as failover targets, in promotion order.
        self._standby_ids: List[int] = list(
            range(config.num_collectors, config.num_collectors + num_standbys)
        )
        #: The :func:`~repro.control.shards.shard_map_of` memo: the last map
        #: frozen of the role map, dropped by its one writer, :meth:`promote`.
        self.frozen_map = None

    @property
    def collectors(self) -> List[Collector]:
        """The serving node of every role, in role order (live view)."""
        nodes = self._nodes
        return [nodes[node_id] for node_id in self._role_map]

    @property
    def standbys(self) -> List[Collector]:
        """Hosts currently available as failover targets, in order."""
        return [self._nodes[node_id] for node_id in self._standby_ids]

    @property
    def all_nodes(self) -> List[Collector]:
        """Every provisioned host -- serving, standby or failed."""
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._role_map)

    def __getitem__(self, role: int) -> Collector:
        return self.node_for(role)

    def __iter__(self):
        return iter(self.collectors)

    def node(self, node_id: int) -> Collector:
        """The host with ``node_id`` (regardless of role or liveness)."""
        if not 0 <= node_id < len(self._nodes):
            raise KeyError(
                f"no collector node {node_id}; nodes: 0..{len(self._nodes) - 1}"
            )
        return self._nodes[node_id]

    def node_for(self, role: int) -> Collector:
        """The host currently serving keyspace ``role``."""
        return self._nodes[self._role_map[role]]

    def role_of(self, node_id: int) -> Optional[int]:
        """The role ``node_id`` serves, or None (standby / failed host)."""
        try:
            return self._role_map.index(node_id)
        except ValueError:
            return None

    # ------------------------------------------------------------------
    # Membership transitions (driven by the fleet controller)
    # ------------------------------------------------------------------

    def promote(self, role: int, node_id: int) -> Collector:
        """Point ``role`` at standby ``node_id``; returns the displaced host.

        The standby leaves the spare pool and starts serving the role's
        keyspace; the displaced node keeps its memory but serves nothing
        (a failed host awaiting :meth:`readmit`, or a drained one).
        """
        if not 0 <= role < len(self._role_map):
            raise ValueError(f"role {role} outside [0, {len(self._role_map)})")
        if node_id not in self._standby_ids:
            raise ValueError(
                f"node {node_id} is not an available standby "
                f"(standbys: {self._standby_ids})"
            )
        displaced = self._nodes[self._role_map[role]]
        self._standby_ids.remove(node_id)
        self._role_map[role] = node_id
        self.frozen_map = None
        return displaced

    def withdraw(self, node_id: int) -> Collector:
        """Remove a host from the standby pool (e.g. a standby died).

        The inverse of :meth:`readmit`: the host keeps existing but is no
        longer a failover target.  Returns the withdrawn host.
        """
        if node_id not in self._standby_ids:
            raise ValueError(
                f"node {node_id} is not in the standby pool "
                f"(standbys: {self._standby_ids})"
            )
        self._standby_ids.remove(node_id)
        return self._nodes[node_id]

    def readmit(self, node_id: int) -> Collector:
        """Re-admit a recovered, roleless host to the standby pool.

        Its region is zeroed first -- a rejoining host's DRAM contents are
        stale by definition (the epoch it missed is lost).
        """
        node = self.node(node_id)
        if not node.alive:
            raise ValueError(f"node {node_id} has not recovered; call recover()")
        if node_id in self._role_map:
            raise ValueError(f"node {node_id} is still serving a role")
        if node_id in self._standby_ids:
            raise ValueError(f"node {node_id} is already a standby")
        node.clear()
        self._standby_ids.append(node_id)
        return node

    def attach_to(self, fabric: Fabric) -> Fabric:
        """Register every serving collector as a fabric endpoint (ID = role).

        This is the collector half of the fabric bring-up: switches address
        frames by role, and the fabric routes each role to the serving
        collector's NIC.  (Standbys are not attached here; the control
        layer gives every host a node-addressed probe port, and a failover
        rebinds the role to the standby's port.)  Returns the fabric for
        chaining.
        """
        for role in range(len(self._role_map)):
            fabric.attach(role, self.node_for(role))
        return fabric

    def read_slot(self, collector_id: int, slot_index: int) -> bytes:
        """Fleet-wide slot reader (plugs into a query client).

        ``collector_id`` here is a keyspace *role* (what the addressing
        layer computes from a key); the read resolves through the live
        role map so queries land on whichever node serves the role now.
        """
        return self.node_for(collector_id).read_slot(slot_index)

    def total_memory_bytes(self) -> int:
        """Sum of all collectors' registered-region sizes."""
        return sum(collector.region.size for collector in self.collectors)
