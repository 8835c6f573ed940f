"""The fleet controller: detector verdicts -> plans -> applied failovers.

This is the reconciliation loop the ROADMAP's production north star was
missing.  Each :meth:`FleetController.tick`:

1. sweeps the :class:`~repro.control.detector.FailureDetector` (RDMA READ
   probes + registry corroboration);
2. for every newly confirmed-dead host serving a role, computes a
   :class:`~repro.control.plan.ReconfigurationPlan` (epoch bump, keyspace
   remap to a standby, per-switch PSN resync) and applies it atomically to
   every registered switch via the
   :class:`~repro.switch.control_plane.SwitchControlPlane`;
3. rebinds the role's fabric endpoint to the promoted host, so in-flight
   addressing and future reports converge on the same node;
4. publishes its own state to the metrics registry
   (``controller_failovers_total``, ``controller_convergence_ticks``,
   per-state member gauges) -- the control loop is observable through the
   same pipeline it consumes.

Roles that cannot be placed (empty spare pool) stay on a retry list and
are re-attempted every tick, so adding capacity heals the fleet without
operator choreography.  The drain -> rejoin lifecycle reuses the same
plan/apply path for graceful maintenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro import obs
from repro.collector.collector import CollectorCluster
from repro.collector.epochs import EpochManager
from repro.control.detector import FailureDetector, ProbeStation
from repro.control.membership import FleetMembership, MemberState
from repro.control.plan import (
    NoStandbyAvailableError,
    ReconfigurationPlan,
    apply_plan,
    build_failover_plan,
)
from repro.control.shards import shard_map_of
from repro.fabric.fabric import Fabric
from repro.obs.metrics import DEPTH_BUCKETS
from repro.switch.control_plane import SwitchControlPlane


@dataclass(frozen=True)
class FailoverEvent:
    """One completed role handover, for logs, tests and experiments."""

    tick: int
    role: int
    failed_node_id: int
    target_node_id: int
    epoch: int
    #: Controller ticks from first missed probe to applied plan.
    convergence_ticks: int
    #: True for operator-initiated drains (the displaced host is healthy).
    drained: bool = False

    def describe(self) -> str:
        """One-line operator rendering of the event."""
        verb = "drained" if self.drained else "failed over"
        return (
            f"tick {self.tick}: role {self.role} {verb} "
            f"node {self.failed_node_id} -> node {self.target_node_id} "
            f"(epoch {self.epoch}, converged in {self.convergence_ticks} "
            f"ticks)"
        )


class FleetController:
    """Maintains live collector membership and heals role assignments.

    Parameters
    ----------
    cluster:
        The fleet, including standbys (``CollectorCluster(num_standbys=...)``).
    control_plane:
        The plane that provisioned the switches; its registry of switches
        is the fleet a plan must cover.
    fabric:
        The transport probes ride and whose role endpoints failovers
        rebind.
    epoch_manager:
        Optional. When given, every failover bumps the epoch by rotating
        (archive + clear), so pre-failover data stays queryable from the
        archive and post-failover slots start clean; otherwise the
        controller keeps a plain epoch counter for table version tags.
    fail_after:
        Consecutive missed probes confirming death (see
        :class:`~repro.control.detector.FailureDetector`).
    tick_interval:
        Logical-clock units (e.g. packets sent) between controller ticks
        when driven through :meth:`maybe_tick`.
    """

    def __init__(
        self,
        cluster: CollectorCluster,
        control_plane: SwitchControlPlane,
        fabric: Fabric,
        *,
        epoch_manager: Optional[EpochManager] = None,
        fail_after: int = 2,
        tick_interval: int = 50,
    ) -> None:
        if tick_interval < 1:
            raise ValueError(f"tick_interval must be >= 1, got {tick_interval}")
        self.cluster = cluster
        self.control_plane = control_plane
        self.fabric = fabric
        self.epoch_manager = epoch_manager
        self.tick_interval = tick_interval
        self.membership = FleetMembership(cluster)
        self.probes = ProbeStation(self.membership, fabric)
        self.detector = FailureDetector(
            self.probes, self.membership, fail_after=fail_after
        )
        self.ticks = 0
        self._last_clock: Optional[int] = None
        #: Table version tag when no epoch manager drives real rotations.
        self.epoch = 0
        #: Roles confirmed failed but unplaced (spare pool was empty);
        #: retried every tick.
        self.unserved_roles: List[int] = []
        self.events: List[FailoverEvent] = []

        registry = obs.get_registry()
        labels = registry.instance_labels("FleetController")
        self.c_failovers = registry.counter(
            "controller_failovers_total",
            labels=labels,
            help="role handovers applied to the switch fleet",
        )
        self.c_unplaced = registry.counter(
            "controller_failovers_unplaced_total",
            labels=labels,
            help="failovers deferred because the spare pool was empty",
        )
        self.h_convergence = registry.histogram(
            "controller_convergence_ticks",
            DEPTH_BUCKETS,
            labels=labels,
            help="controller ticks from first missed probe to applied plan",
        )
        self.g_epoch = registry.gauge(
            "controller_epoch", labels=labels,
            help="current table-version epoch",
        )
        self._state_gauges = {
            state: registry.gauge(
                "controller_members",
                labels=labels + (("state", state.value),),
                help="collector hosts per membership state",
            )
            for state in MemberState
        }
        self._publish_state()

    def __repr__(self) -> str:
        return (
            f"FleetController(ticks={self.ticks}, "
            f"failovers={int(self.c_failovers.value)}, "
            f"epoch={self.current_epoch})"
        )

    @property
    def current_epoch(self) -> int:
        """The table-version epoch switches are (being) moved to."""
        if self.epoch_manager is not None:
            return self.epoch_manager.current_epoch
        return self.epoch

    def shard_map(self):
        """The epoch-current keyspace shard map (the query-plane lookup API).

        The cluster's live role assignments under this controller's
        table-version epoch, as the immutable
        :class:`~repro.control.shards.ShardMap` frozen once per (epoch,
        role map).  Consumers (the :mod:`repro.query` planner, result
        caches) compare a plan's or cache entry's epoch against the
        current map's to detect that a failover has remapped shards
        underneath them.
        """
        return shard_map_of(self.cluster, epoch=self.current_epoch)

    def _publish_state(self) -> None:
        """Refresh the per-state member gauges and epoch gauge."""
        for state, gauge in self._state_gauges.items():
            gauge.set(self.membership.count(state))
        self.g_epoch.set(self.current_epoch)

    # ------------------------------------------------------------------
    # The reconciliation loop
    # ------------------------------------------------------------------

    def maybe_tick(self, clock: int) -> List[FailoverEvent]:
        """Tick when the logical clock has advanced a full interval.

        Deployments call this from their event loop (the packet-level
        simulation passes its packet count), giving the controller a
        deterministic cadence without wall-clock time.
        """
        if self._last_clock is not None and (
            clock - self._last_clock < self.tick_interval
        ):
            return []
        self._last_clock = clock
        return self.tick()

    def tick(self) -> List[FailoverEvent]:
        """One reconciliation round; returns the failovers it applied."""
        self.ticks += 1
        newly_failed = self.detector.sweep(self.ticks)
        events: List[FailoverEvent] = []
        for member in newly_failed:
            if member.role is not None:
                events.extend(self._try_failover(member.role, member))
            else:
                # A dead spare is no failover target; pull it from the pool.
                try:
                    self.cluster.withdraw(member.node_id)
                except ValueError:
                    pass  # already withdrawn (e.g. failed while unserved)
        # Retry roles that could not be placed earlier.
        for role in list(self.unserved_roles):
            member = self.membership.member(
                self.cluster.node_for(role).collector_id
            )
            events.extend(self._try_failover(role, member, retry=True))
        self._publish_state()
        return events

    def _try_failover(self, role, member, retry: bool = False) -> List[FailoverEvent]:
        """Attempt one role handover; defers (and counts) unplaced roles."""
        try:
            event = self._handover(role, member.suspected_at_tick, drained=False)
        except NoStandbyAvailableError:
            if not retry:
                self.c_unplaced.inc()
                self.unserved_roles.append(role)
            return []
        if role in self.unserved_roles:
            self.unserved_roles.remove(role)
        return [event]

    def _bump_epoch(self) -> int:
        """Advance the table version (rotating real epochs when managed)."""
        if self.epoch_manager is not None:
            self.epoch_manager.rotate()
            epoch = self.epoch_manager.current_epoch
        else:
            self.epoch += 1
            epoch = self.epoch
        obs.get_journal().record(
            "epoch_bump",
            f"table version advanced to epoch {epoch}",
            tick=self.ticks,
            epoch=epoch,
        )
        return epoch

    def _handover(
        self, role: int, suspected_at: Optional[int], drained: bool
    ) -> FailoverEvent:
        """Plan + apply one role move; the shared failover/drain core."""
        epoch = self._bump_epoch()
        plan: ReconfigurationPlan = build_failover_plan(
            role,
            self.cluster,
            self.control_plane.switches,
            epoch,
            membership=self.membership,
        )
        apply_plan(plan, self.control_plane, self.control_plane.switches)
        obs.get_journal().record(
            "plan_apply",
            f"role {role}: node {plan.failed_node_id} -> "
            f"node {plan.target_node_id} at epoch {epoch}",
            tick=self.ticks,
            role=role,
            failed=plan.failed_node_id,
            target=plan.target_node_id,
            epoch=epoch,
        )
        # Only after every switch accepted the plan does routing move: the
        # cluster's role map, then the fabric endpoint.
        target = self.cluster.node(plan.target_node_id)
        self.cluster.promote(role, plan.target_node_id)
        self.fabric.rebind(role, target)
        self.membership.record_promotion(
            role, plan.target_node_id, plan.failed_node_id, drained=drained
        )
        started = suspected_at if suspected_at is not None else self.ticks
        convergence = max(1, self.ticks - started + 1)
        self.c_failovers.inc()
        self.h_convergence.observe(convergence)
        event = FailoverEvent(
            tick=self.ticks,
            role=role,
            failed_node_id=plan.failed_node_id,
            target_node_id=plan.target_node_id,
            epoch=epoch,
            convergence_ticks=convergence,
            drained=drained,
        )
        self.events.append(event)
        obs.get_journal().record(
            "drain" if drained else "failover",
            event.describe(),
            tick=self.ticks,
            role=role,
            target=plan.target_node_id,
            epoch=epoch,
        )
        self._publish_state()
        return event

    # ------------------------------------------------------------------
    # Operator lifecycle: drain and rejoin
    # ------------------------------------------------------------------

    def drain(self, role: int) -> FailoverEvent:
        """Gracefully move ``role`` off its (healthy) host.

        Queued frames are flushed to the outgoing host first, so a drain
        loses nothing; the displaced host ends up DRAINED and can be
        readmitted immediately via :meth:`rejoin`.
        """
        self.fabric.flush()
        event = self._handover(role, None, drained=True)
        return event

    def rejoin(self, node_id: int) -> None:
        """Re-admit a recovered (or drained) host as a standby.

        The host must be alive again (:meth:`Collector.recover` for a
        crashed one); its region is zeroed on readmission -- the epochs it
        missed are lost, exactly the paper's epoch semantics.
        """
        self.cluster.readmit(node_id)
        self.membership.record_readmission(node_id)
        obs.get_journal().record(
            "rejoin",
            f"node {node_id} readmitted as standby",
            tick=self.ticks,
            node=node_id,
        )
        self._publish_state()
