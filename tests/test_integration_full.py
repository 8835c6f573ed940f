"""Grand integration: every subsystem in one operator scenario.

A day in the life of a DART deployment, each stage feeding the next:

1. fat-tree traffic with per-packet INT, filtered by switch-side event
   detection;
2. change events reported through real switch-crafted RoCEv2 frames into
   collector NICs, with postcards and anomaly events alongside;
3. Fetch&Add counters rank flows by event volume;
4. an epoch boundary archives the region to disk;
5. the operator investigates: live queries, historical queries from the
   archive, and remote RDMA-READ queries -- all agreeing with ground
   truth.
"""

import pytest

from repro.core.client import DartQueryClient
from repro.core.config import DartConfig
from repro.collector.counters import CounterStore
from repro.collector.epochs import EpochArchive, EpochManager
from repro.collector.remote_query import RemoteQueryClient
from repro.collector.store import DartStore
from repro.network.flows import FlowGenerator
from repro.network.packet_sim import PacketLevelIntNetwork
from repro.network.simulation import decode_path
from repro.network.topology import FatTreeTopology
from repro.switch.event_detection import ChangeDetector
from repro.telemetry.anomalies import AnomalyEvent, AnomalyKind, FlowAnomalyBackend
from repro.telemetry.postcards import PostcardBackend, PostcardMeasurement


@pytest.fixture(scope="module")
def deployment():
    """One fully provisioned deployment shared by the scenario stages."""
    tree = FatTreeTopology(k=4)
    config = DartConfig(slots_per_collector=1 << 13, num_collectors=2, seed=11)
    net = PacketLevelIntNetwork(tree, config)
    flows = FlowGenerator(tree.num_hosts, host_ip=tree.host_ip, seed=11).uniform(150)
    return tree, config, net, flows


class TestFullScenario:
    def test_stage1_packet_level_int_with_event_filtering(self, deployment):
        tree, config, net, flows = deployment
        detector = ChangeDetector(cache_lines=1 << 12, seed=11)
        truth = {}
        reports = 0
        for flow in flows:
            # Each flow sends 5 packets; the path (its state) is stable, so
            # the detector reports once per flow.
            for _ in range(5):
                path = tree.path(flow.src_host, flow.dst_host, flow.five_tuple)
                state = b"".join(s.to_bytes(4, "big") for s in path)
                if detector.observe(flow.five_tuple, state):
                    result = net.send(flow)
                    truth[flow.five_tuple] = result.recorded_path
                    reports += 1
        assert reports == len(flows)  # one report per flow, not per packet
        assert detector.stats.packets_observed == 5 * len(flows)
        deployment_truth = truth
        # Stash for later stages via the fixture object.
        net._scenario_truth = deployment_truth

    def test_stage2_sidecar_backends_share_the_store(self, deployment):
        tree, config, net, flows = deployment
        store = DartStore(config)
        store.cluster = net.cluster  # share the same collectors
        store.client = DartQueryClient(config, reader=net.cluster.read_slot)
        postcards = PostcardBackend(store)
        anomalies = FlowAnomalyBackend(store)
        victim = flows[0]
        path = tree.path(victim.src_host, victim.dst_host, victim.five_tuple)
        for hop, switch_id in enumerate(path):
            postcards.switch_report(
                switch_id,
                victim,
                PostcardMeasurement(1000 + hop, 10, hop, 700),
            )
        anomalies.report_event(
            victim.five_tuple,
            AnomalyEvent(2000, path[0], AnomalyKind.CONGESTION, 5),
        )
        assert postcards.hop_measurement(path[0], victim).timestamp_ns == 1000
        assert (
            anomalies.last_event(victim.five_tuple, AnomalyKind.CONGESTION)
            is not None
        )
        # INT paths written in stage 1 must still be queryable alongside.
        assert net.query_path(victim).answered

    def test_stage3_counters_rank_flows(self, deployment):
        tree, config, net, flows = deployment
        counters = CounterStore(cells_per_row=1 << 12, rows=2)
        for index, flow in enumerate(flows[:20]):
            counters.add(flow.five_tuple, amount=index + 1)
        hits = counters.heavy_hitters(
            [flow.five_tuple for flow in flows[:20]], threshold=15
        )
        assert hits[0][0] == flows[19].five_tuple
        assert len(hits) == 6  # amounts 15..20

    def test_stage4_epoch_archive_and_stage5_investigation(self, deployment, tmp_path):
        tree, config, net, flows = deployment
        truth = net._scenario_truth

        # Remote RDMA-READ queries agree with local ones before rotation.
        remote = RemoteQueryClient(config, net.cluster, operator_id=3)
        sample = flows[::10]
        for flow in sample:
            local = net.query_path(flow)
            over_the_wire = remote.query(flow.five_tuple)
            assert local.answered == over_the_wire.answered
            assert local.value == over_the_wire.value

        # Epoch boundary: archive to disk, clear DRAM.
        archive = EpochArchive(config, directory=tmp_path)
        manager = EpochManager(list(net.cluster), archive)
        manager.rotate()
        assert not net.query_path(flows[0]).answered  # live region cleared

        # Historical investigation from the archive: ground-truth paths.
        correct = 0
        for flow in sample:
            result = archive.query(0, flow.five_tuple)
            if result.answered and decode_path(result.value) == truth[flow.five_tuple]:
                correct += 1
        assert correct >= len(sample) - 1  # allow one hash-collision loss
