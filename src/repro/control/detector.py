"""Failure detection: RDMA READ probes corroborated by registry signals.

A dead collector is invisible to the data plane by design -- switches
fire-and-forget RDMA WRITEs, so nothing upstream notices the blackhole.
The detector therefore asks the question the data plane cannot: each
sweep, a :class:`ProbeStation` issues a one-sided RDMA READ of slot 0 to
every host's NIC over the same fabric reports traverse (a probe exercises
the NIC, the QP and the registered region end to end -- exactly the
machinery reports need).  A host that fails enough consecutive probes is
confirmed dead.

Probes alone can be slow under loss, so :class:`FailureDetector` also
reads cluster-level signals from the metrics registry -- SLO rules in the
firing state (``alerts_firing``) and growth in endpoint-rejected frames
(``fabric_frames_rejected``, which a dead host's port inflates) -- and
counts corroboration as one extra missed probe, shaving a sweep off
detection when the observability layer already sees trouble.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import obs
from repro.control.membership import (
    FleetMembership,
    Member,
    MemberState,
    probe_endpoint,
)
from repro.fabric.fabric import Fabric
from repro.primitives.clients import OneSidedReader
from repro.primitives.translator import ResponseDemux

#: Requester QP number of probe station 0 on every host's NIC, above the
#: per-switch reporting QPs (``0x10000 + switch_id``) and the operator
#: stations (``0x18000 + id``), so probe QPs never collide with either.
PROBE_REPORTER_BASE = 0x1A000


class ProbeStation:
    """Issues liveness probes as one-sided RDMA READs of slot 0.

    Each host gets a dedicated :class:`~repro.primitives.clients.OneSidedReader`
    at construction, on its own ``PsnPolicy.IGNORE`` requester QP (PSNs
    are per-QP in RoCEv2, so probe traffic cannot disturb report or query
    sequencing; two stations with the same ``station_id`` would share QPs,
    so the second construction raises ``ValueError``).  Probes address
    hosts by *node* through the probe port address space, so standbys and
    displaced hosts are probeable even though no keyspace role routes to
    them.
    """

    def __init__(
        self,
        membership: FleetMembership,
        fabric: Fabric,
        station_id: int = 0,
    ) -> None:
        if station_id < 0:
            raise ValueError("station_id must be non-negative")
        self.membership = membership
        self.fabric = fabric
        self.station_id = station_id
        cluster = membership.cluster
        self.config = cluster.config
        membership.attach_probes(fabric)
        #: node -> the reader probing it.
        self._readers: Dict[int, OneSidedReader] = {
            node.collector_id: OneSidedReader(
                fabric,
                probe_endpoint(node.collector_id),
                node.nic,
                PROBE_REPORTER_BASE + station_id,
                ResponseDemux(),
                node.region.rkey,
            )
            for node in cluster.all_nodes
        }
        registry = obs.get_registry()
        labels = registry.instance_labels("ProbeStation")
        #: Probe READs issued.
        self.c_sent = registry.counter("controller_probes_sent", labels=labels)
        #: Probes with no (or an invalid) response.
        self.c_failed = registry.counter(
            "controller_probes_failed", labels=labels
        )

    def __repr__(self) -> str:
        return (
            f"ProbeStation(id={self.station_id}, "
            f"nodes={len(self._readers)})"
        )

    @property
    def probes_sent(self) -> int:
        """Probe READs issued (registry-backed)."""
        return self.c_sent.value

    @property
    def probes_failed(self) -> int:
        """Probes with no or an invalid response (registry-backed)."""
        return self.c_failed.value

    def probe(self, node_id: int) -> bool:
        """One liveness READ round trip to host ``node_id``.

        True iff the host's NIC executed the READ and returned a valid
        response for our PSN: the probe exercises the fabric port, the
        host's liveness gate, iCRC, QP lookup, rkey and bounds checks, the
        DMA read and the response leg.  A dead host loses the request
        outright; READs are idempotent and the QP ignores PSN order, so a
        host that lost earlier probes answers the next one with no
        probe-side bookkeeping.
        """
        node = self.membership.node(node_id)
        self.c_sent.inc()
        _payloads, answered = self._readers[node_id].read_run(
            [node.region.base_address], self.config.slot_bytes
        )
        if not answered[0]:
            self.c_failed.inc()
            return False
        return True


class FailureDetector:
    """Turns probe results + registry corroboration into failure verdicts.

    Parameters
    ----------
    probes:
        The probe station doing the asking.
    membership:
        The host table whose records accumulate miss streaks.
    fail_after:
        Consecutive missed probes that confirm a host dead.  With
        corroboration (a firing SLO alert or endpoint-rejection growth),
        the effective threshold drops by one -- the registry already
        vouches that something is wrong, so the detector need not wait
        for the full streak.
    """

    def __init__(
        self,
        probes: ProbeStation,
        membership: FleetMembership,
        *,
        fail_after: int = 2,
    ) -> None:
        if fail_after < 1:
            raise ValueError(f"fail_after must be >= 1, got {fail_after}")
        self.probes = probes
        self.membership = membership
        self.fail_after = fail_after
        self._registry = obs.get_registry()
        self._last_rejected: Optional[float] = None
        self.sweeps = 0

    def __repr__(self) -> str:
        return (
            f"FailureDetector(fail_after={self.fail_after}, "
            f"sweeps={self.sweeps})"
        )

    def corroboration(self) -> bool:
        """Whether registry signals independently suggest a sick fleet.

        True when any SLO alert is firing (``alerts_firing`` > 0) or when
        endpoint-rejected frames (``fabric_frames_rejected``) grew since
        the previous sweep -- a dead host's port rejects every frame, so
        growth there is the data plane's own evidence of a blackhole.
        """
        if self._registry.total("alerts_firing") > 0:
            return True
        rejected = self._registry.total("fabric_frames_rejected")
        previous, self._last_rejected = self._last_rejected, rejected
        return previous is not None and rejected > previous

    def effective_threshold(self, corroborated: bool) -> int:
        """The miss streak that confirms failure this sweep (>= 1)."""
        if corroborated and self.fail_after > 1:
            return self.fail_after - 1
        return self.fail_after

    def sweep(self, tick: int) -> List[Member]:
        """Probe every non-failed host once; returns newly failed members.

        Updates each member's miss streak and ACTIVE/SUSPECT state.
        DRAINED hosts are still probed (they should stay alive to be
        readmitted) but never "fail" -- they hold no role, so there is
        nothing to fail over.
        """
        self.sweeps += 1
        corroborated = self.corroboration()
        threshold = self.effective_threshold(corroborated)
        newly_failed: List[Member] = []
        journal = obs.get_journal()
        for member in self.membership.members:
            if member.state is MemberState.FAILED:
                continue
            ok = self.probes.probe(member.node_id)
            member.note_probe(ok, tick)
            if ok:
                self.membership.mark_alive(member.node_id)
                continue
            if member.missed_probes == 1:
                # Journal the *start* of a miss streak, not every miss --
                # the postmortem wants the first symptom, not N repeats.
                journal.record(
                    "probe_failure",
                    f"node {member.node_id} missed its liveness probe",
                    tick=tick,
                    node=member.node_id,
                )
            if member.missed_probes >= threshold:
                if member.state is not MemberState.DRAINED:
                    self.membership.mark_failed(member.node_id)
                    newly_failed.append(member)
                    journal.record(
                        "member_failed",
                        f"node {member.node_id} confirmed dead after "
                        f"{member.missed_probes} missed probe(s)",
                        tick=tick,
                        node=member.node_id,
                        corroborated=corroborated,
                    )
            else:
                self.membership.mark_suspect(member.node_id)
        return newly_failed
