"""Tests for the repro.control fleet controller subsystem.

Covers membership bookkeeping, RDMA READ probing, failure detection with
registry corroboration, reconfiguration plans (including atomic rollback),
the reconciliation loop's failover / drain / rejoin lifecycle, PSN
wraparound on the failover resync path, and the end-to-end chaos
acceptance scenario: a collector killed mid-run on the packet-level
pipeline must be detected, failed over on every switch, and post-failover
queries must succeed at the section-4 predicted rate.
"""

import inspect

import pytest

from repro.core import theory
from repro.core.config import DartConfig
from repro.collector.collector import Collector, CollectorCluster, CollectorEndpoint
from repro.collector.epochs import EpochArchive, EpochManager
from repro.control import (
    PROBE_ENDPOINT_BASE,
    FailureDetector,
    FleetController,
    FleetMembership,
    MemberState,
    NoStandbyAvailableError,
    ProbeStation,
    apply_plan,
    build_failover_plan,
    probe_endpoint,
    select_standby,
)
from repro.fabric.fabric import InlineFabric
from repro.network.flows import FlowGenerator
from repro.network.packet_sim import PacketLevelIntNetwork
from repro.network.simulation import encode_path
from repro.network.topology import FatTreeTopology
from repro.rdma.qp import PSN_MODULUS, PsnPolicy, QueuePair, QueuePairState
from repro.switch.control_plane import SwitchControlPlane
from repro.switch.dart_switch import DartSwitch

from .rigs import small_config


def build_fleet(*, num_standbys=1, num_switches=2, config=None):
    """A provisioned deployment: cluster + fabric + control plane + switches."""
    config = config if config is not None else small_config()
    cluster = CollectorCluster(config, num_standbys=num_standbys)
    fabric = cluster.attach_to(InlineFabric())
    plane = SwitchControlPlane(config)
    switches = [
        DartSwitch(config, switch_id=i, fabric=fabric)
        for i in range(num_switches)
    ]
    for switch in switches:
        plane.connect_switch(switch, cluster)
    return config, cluster, fabric, plane, switches


def key_for_role(config, role, switches):
    """A key whose first copy addresses ``role``."""
    addressing = switches[0].addressing
    for i in range(10_000):
        key = b"key-%d" % i
        if addressing.collector_of(key) == role:
            return key
    raise AssertionError(f"no key found for role {role}")


class TestFleetMembership:
    def test_initial_assignment(self, registry):
        _, cluster, _, _, _ = build_fleet(num_standbys=2)
        membership = FleetMembership(cluster)
        assert len(membership) == 4
        actives = membership.in_state(MemberState.ACTIVE)
        assert [m.node_id for m in actives] == [0, 1]
        assert [m.role for m in actives] == [0, 1]
        standbys = membership.in_state(MemberState.STANDBY)
        assert [m.node_id for m in standbys] == [2, 3]
        assert all(m.role is None for m in standbys)
        assert membership.count(MemberState.FAILED) == 0

    def test_member_unknown_raises(self, registry):
        _, cluster, _, _, _ = build_fleet()
        membership = FleetMembership(cluster)
        with pytest.raises(KeyError, match="no member with node ID 99"):
            membership.member(99)

    def test_note_probe_streaks(self, registry):
        _, cluster, _, _, _ = build_fleet()
        member = FleetMembership(cluster).member(0)
        member.note_probe(False, tick=3)
        member.note_probe(False, tick=4)
        assert member.missed_probes == 2
        assert member.suspected_at_tick == 3  # streak start, not latest miss
        member.note_probe(True, tick=5)
        assert member.missed_probes == 0
        assert member.suspected_at_tick is None

    def test_state_transitions(self, registry):
        _, cluster, _, _, _ = build_fleet()
        membership = FleetMembership(cluster)
        membership.mark_suspect(0)
        assert membership.member(0).state is MemberState.SUSPECT
        membership.mark_alive(0)
        assert membership.member(0).state is MemberState.ACTIVE
        # mark_suspect only escalates ACTIVE hosts; mark_alive only clears
        # SUSPECT ones -- a standby stays a standby through both.
        membership.mark_suspect(2)
        assert membership.member(2).state is MemberState.STANDBY
        membership.mark_failed(0)
        assert membership.member(0).state is MemberState.FAILED
        assert membership.member(0).failures == 1

    def test_record_promotion_and_readmission(self, registry):
        _, cluster, _, _, _ = build_fleet()
        membership = FleetMembership(cluster)
        membership.mark_failed(0)
        membership.record_promotion(0, standby_id=2, displaced_id=0)
        promoted = membership.member(2)
        assert promoted.state is MemberState.ACTIVE
        assert promoted.role == 0
        displaced = membership.member(0)
        assert displaced.state is MemberState.FAILED
        assert displaced.role is None
        membership.record_readmission(0)
        assert membership.member(0).state is MemberState.STANDBY

    def test_record_drain_keeps_host_drained(self, registry):
        _, cluster, _, _, _ = build_fleet()
        membership = FleetMembership(cluster)
        membership.record_promotion(1, standby_id=2, displaced_id=1, drained=True)
        assert membership.member(1).state is MemberState.DRAINED

    def test_attach_probes_is_idempotent(self, registry):
        _, cluster, fabric, _, _ = build_fleet(num_standbys=1)
        membership = FleetMembership(cluster)
        membership.attach_probes(fabric)
        membership.attach_probes(fabric)  # rebind, not attach: no raise
        for node in cluster.all_nodes:
            port = fabric.port(probe_endpoint(node.collector_id))
            assert port is node
        # Probe ports live far above keyspace roles.
        assert probe_endpoint(0) == PROBE_ENDPOINT_BASE


class TestProbeStation:
    def test_probe_live_host(self, registry):
        _, cluster, fabric, _, _ = build_fleet()
        station = ProbeStation(FleetMembership(cluster), fabric)
        assert station.probe(0) is True
        assert station.probes_sent == 1
        assert station.probes_failed == 0
        assert registry.total("controller_probes_sent") == 1

    def test_probe_standby_host(self, registry):
        """Standbys hold no role but must be probeable by node address."""
        _, cluster, fabric, _, _ = build_fleet(num_standbys=1)
        station = ProbeStation(FleetMembership(cluster), fabric)
        assert station.probe(2) is True

    def test_probe_dead_host_fails(self, registry):
        _, cluster, fabric, _, _ = build_fleet()
        station = ProbeStation(FleetMembership(cluster), fabric)
        cluster.node(0).fail()
        assert station.probe(0) is False
        assert station.probes_failed == 1
        assert registry.total("controller_probes_failed") == 1

    def test_probe_resyncs_after_recovery(self, registry):
        """Probes lost to a dead host must not wedge the PSN stream."""
        _, cluster, fabric, _, _ = build_fleet()
        station = ProbeStation(FleetMembership(cluster), fabric)
        cluster.node(0).fail()
        assert station.probe(0) is False
        assert station.probe(0) is False
        cluster.node(0).recover()
        # The responder QP resynchronises across the gap (RESYNC_ON_GAP).
        assert station.probe(0) is True

    def test_negative_station_id_rejected(self, registry):
        _, cluster, fabric, _, _ = build_fleet()
        with pytest.raises(ValueError, match="non-negative"):
            ProbeStation(FleetMembership(cluster), fabric, station_id=-1)


class TestFailureDetector:
    def make_detector(self, cluster, fabric, fail_after=2):
        membership = FleetMembership(cluster)
        station = ProbeStation(membership, fabric)
        return FailureDetector(station, membership, fail_after=fail_after)

    def test_fail_after_validation(self, registry):
        _, cluster, fabric, _, _ = build_fleet()
        membership = FleetMembership(cluster)
        station = ProbeStation(membership, fabric)
        with pytest.raises(ValueError, match="fail_after"):
            FailureDetector(station, membership, fail_after=0)

    def test_healthy_fleet_never_fails(self, registry):
        _, cluster, fabric, _, _ = build_fleet(num_standbys=1)
        detector = self.make_detector(cluster, fabric)
        for tick in range(3):
            assert detector.sweep(tick) == []
        assert detector.membership.count(MemberState.ACTIVE) == 2
        assert detector.membership.count(MemberState.STANDBY) == 1

    def test_suspect_then_failed(self, registry):
        _, cluster, fabric, _, _ = build_fleet()
        detector = self.make_detector(cluster, fabric, fail_after=2)
        cluster.node(0).fail()
        assert detector.sweep(1) == []
        assert detector.membership.member(0).state is MemberState.SUSPECT
        failed = detector.sweep(2)
        assert [m.node_id for m in failed] == [0]
        assert failed[0].role == 0
        assert failed[0].suspected_at_tick == 1
        assert detector.membership.member(0).state is MemberState.FAILED
        # Already-failed hosts are not probed again.
        sent_before = detector.probes.probes_sent
        detector.sweep(3)
        # Only node 1 and the standby get probed; the corpse is skipped.
        assert detector.probes.probes_sent == sent_before + 2

    def test_recovery_clears_suspicion(self, registry):
        _, cluster, fabric, _, _ = build_fleet()
        detector = self.make_detector(cluster, fabric, fail_after=2)
        cluster.node(0).fail()
        detector.sweep(1)
        cluster.node(0).recover()
        assert detector.sweep(2) == []
        member = detector.membership.member(0)
        assert member.state is MemberState.ACTIVE
        assert member.missed_probes == 0

    def test_alert_corroboration_shaves_a_sweep(self, registry):
        _, cluster, fabric, _, _ = build_fleet()
        detector = self.make_detector(cluster, fabric, fail_after=2)
        registry.gauge("alerts_firing").set(1)
        assert detector.corroboration() is True
        assert detector.effective_threshold(True) == 1
        cluster.node(0).fail()
        failed = detector.sweep(1)  # one miss suffices when corroborated
        assert [m.node_id for m in failed] == [0]

    def test_rejection_growth_corroborates(self, registry):
        _, cluster, fabric, _, _ = build_fleet()
        detector = self.make_detector(cluster, fabric)
        assert detector.corroboration() is False  # baseline sample
        fabric.counters.c_rejected.inc(3)
        assert detector.corroboration() is True
        assert detector.corroboration() is False  # no further growth

    def test_effective_threshold_floor(self, registry):
        _, cluster, fabric, _, _ = build_fleet()
        detector = self.make_detector(cluster, fabric, fail_after=1)
        # Corroboration never pushes the threshold below one probe.
        assert detector.effective_threshold(True) == 1

    def test_drained_host_never_fails(self, registry):
        _, cluster, fabric, _, _ = build_fleet(num_standbys=1)
        detector = self.make_detector(cluster, fabric, fail_after=1)
        membership = detector.membership
        membership.record_promotion(0, standby_id=2, displaced_id=0, drained=True)
        cluster.promote(0, 2)
        cluster.node(0).fail()
        assert detector.sweep(1) == []
        assert membership.member(0).state is MemberState.DRAINED


class TestReconfigurationPlan:
    def test_select_standby_order_and_health(self, registry):
        _, cluster, fabric, _, _ = build_fleet(num_standbys=2)
        assert select_standby(cluster).collector_id == 2
        membership = FleetMembership(cluster)
        membership.mark_failed(2)  # detector distrusts the first spare
        assert select_standby(cluster, membership).collector_id == 3
        membership.mark_failed(3)
        assert select_standby(cluster, membership) is None

    def test_select_standby_empty_pool(self, registry):
        _, cluster, _, _, _ = build_fleet(num_standbys=0)
        assert select_standby(cluster) is None

    def test_build_plan_validates_role(self, registry):
        _, cluster, _, _, switches = build_fleet()
        with pytest.raises(ValueError, match="role 7 outside"):
            build_failover_plan(7, cluster, switches, epoch=1)

    def test_no_standby_error_names_the_role(self, registry):
        _, cluster, _, _, switches = build_fleet(num_standbys=0)
        with pytest.raises(NoStandbyAvailableError) as excinfo:
            build_failover_plan(0, cluster, switches, epoch=1)
        error = excinfo.value
        assert error.role == 0
        assert error.failed_node_id == 0
        assert "role 0" in str(error) and "node 0" in str(error)

    def test_plan_resyncs_psn_per_switch(self, registry):
        _, cluster, _, _, switches = build_fleet(num_switches=3)
        standby = cluster.node(2)
        # Pre-advance one per-switch responder QP so expected PSNs differ.
        standby.create_reporter_qp(switches[1].switch_id).expected_psn = 77
        plan = build_failover_plan(0, cluster, switches, epoch=5)
        assert plan.role == 0
        assert plan.failed_node_id == 0
        assert plan.target_node_id == 2
        assert len(plan.updates) == 3
        by_switch = {u.switch_id: u for u in plan.updates}
        assert by_switch[1].initial_psn == 77
        assert by_switch[0].initial_psn == 0
        for update in plan.updates:
            assert update.epoch == 5
            assert update.endpoint.mac == standby.nic.mac
            # Per-switch QP, not the standby's default responder QP.
            assert update.endpoint.qp_number == 0x10000 + update.switch_id
        assert "epoch 5" in plan.describe()

    def test_apply_plan_updates_every_switch(self, registry):
        _, cluster, _, plane, switches = build_fleet(num_switches=3)
        standby = cluster.node(2)
        plan = build_failover_plan(0, cluster, switches, epoch=1)
        assert apply_plan(plan, plane, switches) == 3
        for switch in switches:
            entry = switch.collector_endpoint(0)
            assert entry["mac"] == standby.nic.mac
            assert entry["rkey"] == standby.region.rkey
            assert switch.endpoint_epochs[0] == 1
        # Role 1's row is untouched.
        assert switches[0].collector_endpoint(1)["mac"] == cluster.node(1).nic.mac

    def test_apply_plan_rolls_back_on_partial_failure(self, registry):
        config, cluster, _, plane, switches = build_fleet(num_switches=2)
        good = switches[0]
        before = dict(good.collector_endpoint(0))
        before_psn = good.psn_registers.read(0)
        # A switch built for a different config: apply_update rejects it
        # after the first switch has already been rewritten.
        other = DartSwitch(small_config(slots_per_collector=1 << 9), switch_id=9)
        plan = build_failover_plan(0, cluster, [good, other], epoch=1)
        with pytest.raises(ValueError, match="different DartConfig"):
            apply_plan(plan, plane, [good, other])
        # The good switch is back on its snapshotted row: no mixed epochs.
        assert good.collector_endpoint(0) == before
        assert good.psn_registers.read(0) == before_psn
        assert good.endpoint_epochs[0] == 0


class TestFleetController:
    def make_controller(self, cluster, plane, fabric, **kwargs):
        kwargs.setdefault("fail_after", 2)
        kwargs.setdefault("tick_interval", 10)
        return FleetController(cluster, plane, fabric, **kwargs)

    def test_tick_interval_validation(self, registry):
        _, cluster, fabric, plane, _ = build_fleet()
        with pytest.raises(ValueError, match="tick_interval"):
            FleetController(cluster, plane, fabric, tick_interval=0)

    def test_failover_end_to_end(self, registry):
        _, cluster, fabric, plane, switches = build_fleet(num_standbys=1)
        controller = self.make_controller(cluster, plane, fabric)
        cluster.node(0).fail()
        assert controller.tick() == []  # first miss: suspect only
        events = controller.tick()
        assert len(events) == 1
        event = events[0]
        assert event.role == 0
        assert event.failed_node_id == 0
        assert event.target_node_id == 2
        assert event.epoch == 1
        assert event.convergence_ticks == 2
        assert not event.drained
        assert "failed over" in event.describe()
        standby = cluster.node(2)
        # Routing converged everywhere: role map, switch tables, fabric.
        assert cluster.node_for(0) is standby
        for switch in switches:
            assert switch.collector_endpoint(0)["ip"] == standby.nic.ip
            assert switch.endpoint_epochs[0] == 1
        assert fabric.port(0) is standby
        assert controller.current_epoch == 1
        assert controller.membership.member(2).role == 0
        assert controller.membership.member(0).state is MemberState.FAILED
        assert registry.total("controller_failovers_total") == 1
        assert registry.total("controller_members", state="active") == 2
        assert registry.total("controller_members", state="failed") == 1
        assert registry.total("controller_epoch") == 1

    def test_post_failover_reports_land_on_standby(self, registry):
        config, cluster, fabric, plane, switches = build_fleet(num_standbys=1)
        controller = self.make_controller(cluster, plane, fabric)
        cluster.node(0).fail()
        controller.tick()
        controller.tick()
        standby = cluster.node(2)
        key = key_for_role(config, 0, switches)
        executed_before = standby.nic.counters.writes_executed
        assert switches[0].report_into(key, b"\x01" * config.value_bytes) > 0
        assert standby.nic.counters.writes_executed > executed_before

    def test_maybe_tick_cadence(self, registry):
        _, cluster, fabric, plane, _ = build_fleet()
        controller = self.make_controller(cluster, plane, fabric, tick_interval=10)
        controller.maybe_tick(1)
        assert controller.ticks == 1  # first observation always ticks
        controller.maybe_tick(5)
        assert controller.ticks == 1  # clock has not advanced an interval
        controller.maybe_tick(11)
        assert controller.ticks == 2

    def test_unserved_role_heals_when_capacity_returns(self, registry):
        _, cluster, fabric, plane, _ = build_fleet(num_standbys=1)
        controller = self.make_controller(cluster, plane, fabric, fail_after=1)
        cluster.node(0).fail()
        cluster.node(1).fail()
        events = controller.tick()
        # One standby covers role 0; role 1 stays unserved but remembered.
        assert [e.role for e in events] == [0]
        assert controller.unserved_roles == [1]
        assert registry.total("controller_failovers_unplaced_total") == 1
        # Node 0 (displaced, roleless) recovers and rejoins the pool ...
        cluster.node(0).recover()
        controller.rejoin(0)
        assert controller.membership.member(0).state is MemberState.STANDBY
        # ... and the retry path heals role 1 on the next tick.
        events = controller.tick()
        assert [(e.role, e.target_node_id) for e in events] == [(1, 0)]
        assert controller.unserved_roles == []
        assert cluster.node_for(1) is cluster.node(0)

    def test_dead_standby_is_withdrawn(self, registry):
        _, cluster, fabric, plane, _ = build_fleet(num_standbys=1)
        controller = self.make_controller(cluster, plane, fabric, fail_after=1)
        cluster.node(2).fail()
        assert controller.tick() == []  # a dead spare is no failover
        assert cluster.standbys == []
        assert controller.membership.member(2).state is MemberState.FAILED
        # With the pool now empty, a real failure defers.
        cluster.node(0).fail()
        controller.tick()
        assert controller.unserved_roles == [0]

    def test_drain_and_rejoin(self, registry):
        config, cluster, fabric, plane, switches = build_fleet(num_standbys=1)
        controller = self.make_controller(cluster, plane, fabric)
        event = controller.drain(0)
        assert event.drained
        assert "drained" in event.describe()
        assert controller.membership.member(0).state is MemberState.DRAINED
        assert cluster.node_for(0) is cluster.node(2)
        # The drained host is healthy; it can rejoin the pool immediately.
        controller.rejoin(0)
        assert cluster.standbys == [cluster.node(0)]
        assert registry.total("controller_members", state="standby") == 1

    def test_epoch_manager_rotation_archives_pre_failover_data(self, registry):
        config, cluster, fabric, plane, switches = build_fleet(num_standbys=1)
        archive = EpochArchive(config)
        manager = EpochManager(cluster.collectors, archive)
        controller = self.make_controller(
            cluster, plane, fabric, epoch_manager=manager
        )
        marker = b"\x7f" * config.slot_bytes
        cluster.node(0).write_slot(3, marker)
        cluster.node(0).fail()
        controller.tick()
        events = controller.tick()
        assert events[0].epoch == 1
        assert controller.current_epoch == 1
        assert manager.current_epoch == 1
        # The failed host's region was archived under its *role* before
        # the standby took over, so pre-failover data stays queryable.
        image = archive.load(0, 0)
        offset = 3 * config.slot_bytes
        assert image[offset : offset + config.slot_bytes] == marker
        # The standby starts the new epoch clean.
        assert cluster.node_for(0).read_slot(3) == b"\x00" * config.slot_bytes


def find_cached_endpoints(root):
    """Recursively scan an object graph for held CollectorEndpoint instances.

    The failover design requires that nothing between the control plane and
    the data plane caches an endpoint row: switches must resolve through
    their live match-action table on every send.  Returns the attribute
    paths of any cached endpoints found (empty = the invariant holds).
    """
    seen = set()
    found = []
    stack = [(root, type(root).__name__)]
    while stack:
        obj, path = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, CollectorEndpoint):
            found.append(path)
            continue
        if inspect.ismodule(obj) or inspect.isclass(obj) or callable(obj):
            continue
        if isinstance(obj, dict):
            for key, value in obj.items():
                stack.append((value, f"{path}[{key!r}]"))
        elif isinstance(obj, (list, tuple, set, frozenset)):
            for index, value in enumerate(obj):
                stack.append((value, f"{path}[{index}]"))
        elif hasattr(obj, "__dict__"):
            for name, value in vars(obj).items():
                stack.append((value, f"{path}.{name}"))
    return found


class TestNoStaleEndpointCaching:
    """Meta-tests: every send resolves endpoints through the live table."""

    def test_no_component_holds_an_endpoint_object(self, registry):
        """No switch, sink, plane or controller may cache a CollectorEndpoint.

        Table rows are stored as unpacked parameter dicts that a failover
        rewrites in place; a held :class:`CollectorEndpoint` would be the
        one thing a failover could leave stale, so none may survive
        provisioning anywhere in the deployment's object graph.
        """
        tree = FatTreeTopology(k=4)
        config = DartConfig(
            slots_per_collector=256, redundancy=2, num_collectors=2, seed=0
        )
        net = PacketLevelIntNetwork(tree, config, num_standbys=1)
        net.enable_control(fail_after=2, tick_interval=10)
        assert find_cached_endpoints(net) == []

    def test_reports_follow_the_table_after_failover(self, registry):
        """Frames crafted after a failover carry the standby's parameters."""
        config, cluster, fabric, plane, switches = build_fleet(
            num_standbys=1, num_switches=3
        )
        key = key_for_role(config, 0, switches)
        value = b"\x01" * config.value_bytes
        controller = FleetController(
            cluster, plane, fabric, fail_after=1, tick_interval=10
        )
        old = cluster.node(0)
        before = {s.switch_id: s.report(key, value) for s in switches}
        for frames in before.values():
            assert all(cid == 0 for cid, _ in frames)
        old.fail()
        controller.tick()
        standby = cluster.node(2)
        from repro.rdma.packets import RoceV2Packet

        for switch in switches:
            for _collector_id, frame in switch.report(key, value):
                packet = RoceV2Packet.unpack(frame)
                assert packet.ipv4.dst_ip == standby.nic.ip
                assert packet.eth.dst_mac == standby.nic.mac
                assert packet.reth.rkey == standby.region.rkey
                assert packet.bth.dest_qp == 0x10000 + switch.switch_id
                assert packet.ipv4.dst_ip != old.nic.ip
            # The live-table read agrees with what the frames carry.
            assert switch.collector_endpoint(0)["ip"] == standby.nic.ip


class TestPsnWraparoundResync:
    """Regression tests for 24-bit PSN arithmetic at the wrap boundary."""

    def test_accept_at_modulus_edge_wraps_to_zero(self):
        qp = QueuePair(qp_number=1, expected_psn=PSN_MODULUS - 1)
        assert qp.accept(PSN_MODULUS - 1) is True
        assert qp.expected_psn == 0  # (psn + 1) % 2**24
        assert qp.accept(0) is True
        assert qp.expected_psn == 1

    def test_duplicate_detected_across_the_wrap(self):
        qp = QueuePair(qp_number=1, expected_psn=PSN_MODULUS - 1)
        assert qp.accept(PSN_MODULUS - 1) is True
        # Replaying the pre-wrap PSN is one step behind: a duplicate.
        assert qp.accept(PSN_MODULUS - 1) is False
        assert qp.duplicates_dropped == 1
        assert qp.expected_psn == 0

    def test_stale_window_boundary(self):
        stale_window = PSN_MODULUS // 2
        qp = QueuePair(qp_number=1, expected_psn=0)
        # Exactly at the window: treated as stale, not a forward gap.
        assert qp.accept(stale_window) is False
        assert qp.duplicates_dropped == 1
        # One before the window: the largest tolerated forward gap.
        qp = QueuePair(qp_number=1, expected_psn=0)
        assert qp.accept(stale_window - 1) is True
        assert qp.gaps_observed == 1
        assert qp.expected_psn == stale_window

    def test_strict_policy_errors_on_gap_at_wrap(self):
        qp = QueuePair(
            qp_number=1, expected_psn=PSN_MODULUS - 1, policy=PsnPolicy.STRICT
        )
        assert qp.accept(1) is False  # gap of 2 across the wrap
        assert qp.state is QueuePairState.ERROR

    def test_failover_resync_near_wrap(self, registry):
        """A standby advertising a near-wrap PSN stays in sequence.

        The plan seeds the switch's PSN register from the standby's
        expected PSN; reports crafted after failover must be accepted both
        at ``2**24 - 1`` and across the wrap to 0.
        """
        config, cluster, fabric, plane, switches = build_fleet(
            num_standbys=1, num_switches=1
        )
        switch = switches[0]
        standby = cluster.node(2)
        qp = standby.create_reporter_qp(switch.switch_id)
        qp.expected_psn = PSN_MODULUS - 1
        controller = FleetController(
            cluster, plane, fabric, fail_after=1, tick_interval=10
        )
        cluster.node(0).fail()
        events = controller.tick()
        assert len(events) == 1
        assert switch.psn_registers.read(0) == PSN_MODULUS - 1
        key = key_for_role(config, 0, switches)
        value = b"\x01" * config.value_bytes
        accepted_before = qp.accepted
        # Two reports: PSNs 2**24 - 1 and (wrapped) 0, both in sequence.
        for _ in range(2):
            switch.report_into(key, value)
        assert qp.accepted == accepted_before + 2 * config.redundancy
        assert qp.gaps_observed == 0
        assert qp.expected_psn == config.redundancy * 2 - 1


class TestEndToEndChaosFailover:
    """The ISSUE acceptance scenario on the packet-level pipeline."""

    def test_kill_collector_mid_run_converges_and_queries(self, registry):
        tree = FatTreeTopology(k=4)
        config = DartConfig(
            slots_per_collector=2048, redundancy=2, num_collectors=4, seed=0
        )
        net = PacketLevelIntNetwork(tree, config, num_standbys=1)
        controller = net.enable_control(fail_after=2, tick_interval=25)
        flows = FlowGenerator(
            tree.num_hosts, host_ip=tree.host_ip, seed=1
        ).uniform(800)
        kill_at = len(flows) // 2
        converged_at = None
        for index, flow in enumerate(flows):
            if index == kill_at:
                net.kill_collector(0)
            net.send(flow)
            if converged_at is None and controller.events:
                converged_at = index
        # The detector fired and the controller converged mid-run.
        assert converged_at is not None
        assert converged_at < len(flows) - 100
        event = controller.events[0]
        assert event.failed_node_id == 0
        assert event.target_node_id == config.num_collectors  # the standby
        # Every switch in the fleet was re-provisioned to the new epoch.
        standby = net.cluster.node(config.num_collectors)
        assert len(net.plane.switches) == len(tree.switches)
        for switch in net.plane.switches:
            assert switch.collector_endpoint(0)["ip"] == standby.nic.ip
            assert switch.endpoint_epochs[0] == event.epoch
        # Queries for flows sent after convergence succeed at the
        # section-4 predicted rate.
        answered = checked = 0
        for flow in flows[converged_at + 1 :]:
            path = tree.path(flow.src_host, flow.dst_host, flow.five_tuple)
            result = net.query_path(flow)
            checked += 1
            if result.value == encode_path(path):
                answered += 1
        load = len(flows) * config.redundancy / (
            config.num_collectors * config.slots_per_collector
        )
        predicted = float(theory.average_queryability(load, config.redundancy))
        assert checked > 100
        assert answered / checked >= predicted - 0.03
        # The controller published its own telemetry.
        assert registry.total("controller_failovers_total") == 1
        histograms = [
            metric for _labels, metric in registry.samples("controller_convergence_ticks")
        ]
        assert histograms and sum(h.count for h in histograms) == 1
