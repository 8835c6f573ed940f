"""Fleet membership: who serves which keyspace role, and in what health.

DART's keyspace is a function of the config (``hash(key) % num_collectors``),
so the unit of membership is the *role*, not the host: a role must always
be served by exactly one live collector, while hosts move between serving,
standby and failed states.  :class:`FleetMembership` is the controller's
authoritative view of that assignment -- it mirrors the
:class:`~repro.collector.collector.CollectorCluster` role map and layers
health state (probe misses, suspicion, confirmed failure) on top.

Probe traffic gets its own fabric address space
(:data:`PROBE_ENDPOINT_BASE`): role endpoints say "whoever serves role r",
but a failure detector must ask "is *host n* alive" -- including standbys
and displaced hosts that no role points at -- so every host is attached at
a node-addressed probe port disjoint from the role endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from repro.collector.collector import Collector, CollectorCluster
from repro.fabric.fabric import Fabric

#: Fabric endpoint IDs for node-addressed probe ports: probe traffic for
#: host ``n`` goes to endpoint ``PROBE_ENDPOINT_BASE + n``.  Far above any
#: keyspace role, so role rebinds never collide with probe routes.
PROBE_ENDPOINT_BASE = 1 << 20


def probe_endpoint(node_id: int) -> int:
    """The fabric endpoint ID of host ``node_id``'s probe port."""
    return PROBE_ENDPOINT_BASE + node_id


class MemberState(Enum):
    """Lifecycle of one collector host, as the controller sees it."""

    #: Serving a keyspace role and answering probes.
    ACTIVE = "active"
    #: Warm spare: provisioned, probed, holding no role.
    STANDBY = "standby"
    #: Missed probes, below the failure threshold; still serving.
    SUSPECT = "suspect"
    #: Confirmed dead by the detector; displaced (or awaiting failover).
    FAILED = "failed"
    #: Gracefully displaced by a drain, alive but roleless.
    DRAINED = "drained"


@dataclass
class Member:
    """One host's control-plane record."""

    node_id: int
    state: MemberState
    #: The keyspace role the host serves, or None (standby/failed/drained).
    role: Optional[int] = None
    #: Consecutive probe sweeps the host has failed to answer.
    missed_probes: int = 0
    #: Controller tick at which the current miss streak started.
    suspected_at_tick: Optional[int] = None
    #: Times this host has been failed over away from.
    failures: int = field(default=0)

    def note_probe(self, ok: bool, tick: int) -> None:
        """Fold one probe result into the miss streak."""
        if ok:
            self.missed_probes = 0
            self.suspected_at_tick = None
        else:
            if self.missed_probes == 0:
                self.suspected_at_tick = tick
            self.missed_probes += 1


class FleetMembership:
    """The controller's live host table, kept in step with the cluster.

    Construction snapshots the cluster's bring-up assignment (role ``i``
    served by node ``i``, spares standby); the controller mutates records
    through the transition methods as the detector and failover paths
    fire, and the cluster's role map stays the single source of truth for
    *routing* while this table is the source of truth for *health*.
    """

    def __init__(self, cluster: CollectorCluster) -> None:
        self.cluster = cluster
        self._members: Dict[int, Member] = {}
        for role in range(len(cluster)):
            node = cluster.node_for(role)
            self._members[node.collector_id] = Member(
                node_id=node.collector_id, state=MemberState.ACTIVE, role=role
            )
        for node in cluster.standbys:
            self._members[node.collector_id] = Member(
                node_id=node.collector_id, state=MemberState.STANDBY
            )

    def __len__(self) -> int:
        return len(self._members)

    def __repr__(self) -> str:
        counts = {}
        for member in self._members.values():
            counts[member.state.value] = counts.get(member.state.value, 0) + 1
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        return f"FleetMembership({rendered})"

    @property
    def members(self) -> List[Member]:
        """Every record, in node-ID order."""
        return [self._members[nid] for nid in sorted(self._members)]

    def member(self, node_id: int) -> Member:
        """The record for one host (KeyError if unknown)."""
        try:
            return self._members[node_id]
        except KeyError:
            raise KeyError(
                f"no member with node ID {node_id}; known: "
                f"{sorted(self._members)}"
            ) from None

    def in_state(self, *states: MemberState) -> List[Member]:
        """Records currently in any of ``states``, node-ID order."""
        return [m for m in self.members if m.state in states]

    def count(self, state: MemberState) -> int:
        """How many hosts are in ``state``."""
        return sum(1 for m in self._members.values() if m.state is state)

    # ------------------------------------------------------------------
    # Probe plumbing
    # ------------------------------------------------------------------

    def attach_probes(self, fabric: Fabric) -> None:
        """Give every host a node-addressed probe port on the fabric.

        Role endpoints answer "where do reports for role r go"; probe
        ports answer "is host n alive" -- they must exist for standbys and
        survive failovers unchanged, hence the disjoint address space.
        Idempotent: re-attaching rebinds the same ports.
        """
        for node in self.cluster.all_nodes:
            fabric.rebind(probe_endpoint(node.collector_id), node)

    def node(self, node_id: int) -> Collector:
        """The host object behind a record."""
        return self.cluster.node(node_id)

    # ------------------------------------------------------------------
    # State transitions (called by the detector / controller)
    # ------------------------------------------------------------------

    def mark_suspect(self, node_id: int) -> None:
        """An ACTIVE host missed probes but is not yet confirmed dead."""
        member = self.member(node_id)
        if member.state is MemberState.ACTIVE:
            member.state = MemberState.SUSPECT

    def mark_alive(self, node_id: int) -> None:
        """A SUSPECT host answered again; clear the suspicion."""
        member = self.member(node_id)
        if member.state is MemberState.SUSPECT:
            member.state = MemberState.ACTIVE

    def mark_failed(self, node_id: int) -> None:
        """The detector confirmed this host dead."""
        member = self.member(node_id)
        member.state = MemberState.FAILED
        member.failures += 1

    def record_promotion(self, role: int, standby_id: int, displaced_id: int,
                         *, drained: bool = False) -> None:
        """Reflect a completed failover/drain in the member records."""
        standby = self.member(standby_id)
        standby.state = MemberState.ACTIVE
        standby.role = role
        standby.missed_probes = 0
        standby.suspected_at_tick = None
        displaced = self.member(displaced_id)
        displaced.role = None
        displaced.state = (
            MemberState.DRAINED if drained else MemberState.FAILED
        )

    def record_readmission(self, node_id: int) -> None:
        """A recovered host rejoined the spare pool."""
        member = self.member(node_id)
        member.state = MemberState.STANDBY
        member.role = None
        member.missed_probes = 0
        member.suspected_at_tick = None
