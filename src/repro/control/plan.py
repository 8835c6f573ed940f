"""Reconfiguration plans: the computed diff a failover applies to switches.

Separating *planning* from *execution* keeps the failover auditable: the
detector's verdict produces an immutable :class:`ReconfigurationPlan`
naming the role, the dead host, the chosen standby and the exact row each
switch will get (endpoint parameters + the initial PSN resynced from the
standby's per-switch responder QP + the new epoch tag).  :func:`apply_plan`
then executes it atomically across the fleet: if any switch update raises,
every switch already updated is rolled back to its snapshotted previous
row, so the fleet never runs a mix of epochs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.collector.collector import Collector, CollectorCluster, CollectorEndpoint
from repro.control.membership import FleetMembership, MemberState
from repro.switch.control_plane import SwitchControlPlane
from repro.switch.dart_switch import DartSwitch


class NoStandbyAvailableError(RuntimeError):
    """A failover was needed but the spare pool is empty.

    The fleet keeps running degraded -- the failed role blackholes until
    an operator adds capacity -- which is precisely the alert-worthy
    condition, so the error message names the role left unserved.
    """

    def __init__(self, role: int, failed_node_id: int) -> None:
        self.role = role
        self.failed_node_id = failed_node_id
        super().__init__(
            f"no standby available to take over role {role} from failed "
            f"node {failed_node_id}; the role is unserved until capacity "
            f"is added"
        )


@dataclass(frozen=True)
class SwitchUpdate:
    """One switch's row rewrite: re-point ``role`` at ``endpoint``."""

    switch_id: int
    role: int
    endpoint: CollectorEndpoint
    #: PSN register seed: the standby's per-switch responder QP's expected
    #: PSN, so the first post-failover report is in sequence.
    initial_psn: int
    #: The table version this update belongs to.
    epoch: int


@dataclass(frozen=True)
class ReconfigurationPlan:
    """The full, immutable diff one failover applies to the fleet."""

    epoch: int
    role: int
    failed_node_id: int
    target_node_id: int
    updates: Tuple[SwitchUpdate, ...]

    def describe(self) -> str:
        """One-line operator rendering of the plan."""
        return (
            f"plan[epoch {self.epoch}]: role {self.role} "
            f"node {self.failed_node_id} -> node {self.target_node_id} "
            f"({len(self.updates)} switch updates)"
        )


def select_standby(
    cluster: CollectorCluster, membership: Optional[FleetMembership] = None
) -> Optional[Collector]:
    """The first healthy spare, honouring the pool's promotion order.

    With a membership table, hosts the detector currently distrusts
    (anything not in the STANDBY state) are skipped -- promoting a suspect
    spare would just schedule the next failover.
    """
    for node in cluster.standbys:
        if membership is not None:
            member = membership.member(node.collector_id)
            if member.state is not MemberState.STANDBY:
                continue
        return node
    return None


def build_failover_plan(
    role: int,
    cluster: CollectorCluster,
    switches: Sequence[DartSwitch],
    epoch: int,
    membership: Optional[FleetMembership] = None,
) -> ReconfigurationPlan:
    """Compute the diff that moves ``role`` onto a healthy standby.

    Every switch gets the standby's row on that switch's own responder QP
    (:meth:`~repro.collector.collector.Collector.endpoint_for`, the
    derivation bring-up uses) -- RoCEv2 PSNs sequence per QP, so each
    switch's PSN register must seed from *its own* QP's expected PSN, not
    a shared value.  Raises
    :class:`NoStandbyAvailableError` when the spare pool has no healthy
    host.
    """
    if not 0 <= role < len(cluster):
        raise ValueError(f"role {role} outside [0, {len(cluster)})")
    failed_node = cluster.node_for(role)
    target = select_standby(cluster, membership)
    if target is None:
        raise NoStandbyAvailableError(role, failed_node.collector_id)
    updates: List[SwitchUpdate] = []
    for switch in switches:
        endpoint, psn = target.endpoint_for(switch.switch_id)
        updates.append(
            SwitchUpdate(switch.switch_id, role, endpoint, psn, epoch)
        )
    return ReconfigurationPlan(
        epoch=epoch,
        role=role,
        failed_node_id=failed_node.collector_id,
        target_node_id=target.collector_id,
        updates=tuple(updates),
    )


def apply_plan(
    plan: ReconfigurationPlan,
    control_plane: SwitchControlPlane,
    switches: Sequence[DartSwitch],
) -> int:
    """Execute a plan on every switch, atomically; returns switches updated.

    Each update returns the arguments that re-install the switch's previous
    row.  If any update raises, every switch already rewritten gets its
    previous row back through the same ``update_collector`` call and the
    original exception propagates: either the whole fleet moves to
    ``plan.epoch`` or none of it does.
    """
    by_id: Dict[int, DartSwitch] = {s.switch_id: s for s in switches}
    applied: List[Tuple[DartSwitch, Tuple[CollectorEndpoint, int, int]]] = []
    try:
        for update in plan.updates:
            switch = by_id[update.switch_id]
            previous = control_plane.apply_update(
                switch,
                update.role,
                update.endpoint,
                initial_psn=update.initial_psn,
                epoch=update.epoch,
            )
            applied.append((switch, previous))
    except Exception as error:
        obs.get_journal().record(
            "plan_rollback",
            f"{plan.describe()} rolled back after {len(applied)} "
            f"update(s): {error}",
            role=plan.role,
            epoch=plan.epoch,
            applied=len(applied),
        )
        for switch, previous in reversed(applied):
            switch.update_collector(plan.role, *previous)
        raise
    return len(applied)
