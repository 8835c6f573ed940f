"""Tests for the network substrate (repro.network)."""

import networkx as nx
import pytest

from repro.core.config import DartConfig
from repro.network.flows import FlowGenerator
from repro.network.simulation import (
    IntSimulation,
    LossModel,
    decode_path,
    encode_path,
)
from repro.network.topology import FatTreeTopology, SwitchRole


class TestFatTree:
    def test_k4_counts(self):
        """k=4: 16 hosts, 20 switches (8 edge, 8 agg, 4 core)."""
        tree = FatTreeTopology(k=4)
        assert tree.num_hosts == 16
        assert tree.num_switches == 20
        roles = [s.role for s in tree.switches]
        assert roles.count(SwitchRole.EDGE) == 8
        assert roles.count(SwitchRole.AGGREGATION) == 8
        assert roles.count(SwitchRole.CORE) == 4

    def test_k8_counts(self):
        tree = FatTreeTopology(k=8)
        assert tree.num_hosts == 128  # k^3/4
        assert tree.num_switches == 80  # 5k^2/4

    @pytest.mark.parametrize("k", [0, 3, 5, -2])
    def test_invalid_k(self, k):
        with pytest.raises(ValueError):
            FatTreeTopology(k=k)

    def test_connected(self):
        assert nx.is_connected(FatTreeTopology(k=4).graph)

    def test_host_ip_plan(self):
        tree = FatTreeTopology(k=4)
        assert tree.host_ip(0) == "10.0.0.2"
        assert tree.host_ip(5) == "10.1.0.3"  # pod 1, edge 0, host 1

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_host_ips_are_distinct_and_follow_the_plan(self, k):
        tree = FatTreeTopology(k=k)
        ips = [tree.host_ip(host) for host in range(tree.num_hosts)]
        assert len(set(ips)) == tree.num_hosts
        for ip in ips:
            ten, pod, edge, host = map(int, ip.split("."))
            assert ten == 10 and pod < k
            assert edge < k // 2 and 2 <= host < k // 2 + 2

    def test_edge_switch_of_bounds(self):
        tree = FatTreeTopology(k=4)
        with pytest.raises(ValueError):
            tree.edge_switch_of(16)


class TestPaths:
    def test_same_edge_one_hop(self):
        tree = FatTreeTopology(k=4)
        path = tree.path(0, 1, ("f",))  # hosts 0,1 share edge switch
        assert len(path) == 1
        assert path[0] == tree.edge_switch_of(0)

    def test_same_pod_three_hops(self):
        tree = FatTreeTopology(k=4)
        path = tree.path(0, 2, ("f",))  # same pod, different edge
        assert len(path) == 3
        assert path[0] == tree.edge_switch_of(0)
        assert path[2] == tree.edge_switch_of(2)
        assert tree.switches[path[1]].role is SwitchRole.AGGREGATION

    def test_cross_pod_five_hops(self):
        """The paper's '5-hop fat-tree topology'."""
        tree = FatTreeTopology(k=4)
        path = tree.path(0, 15, ("f",))
        assert len(path) == 5
        roles = [tree.switches[s].role for s in path]
        assert roles == [
            SwitchRole.EDGE,
            SwitchRole.AGGREGATION,
            SwitchRole.CORE,
            SwitchRole.AGGREGATION,
            SwitchRole.EDGE,
        ]

    def test_path_edges_exist_in_graph(self):
        """Consecutive path switches are physically connected."""
        tree = FatTreeTopology(k=4)
        for flow_id in range(20):
            path = tree.path(0, 15, ("flow", flow_id))
            for a, b in zip(path, path[1:]):
                assert tree.graph.has_edge(("switch", a), ("switch", b))

    def test_ecmp_deterministic_per_flow(self):
        tree = FatTreeTopology(k=4)
        assert tree.path(0, 15, ("f", 1)) == tree.path(0, 15, ("f", 1))

    def test_ecmp_spreads_flows(self):
        tree = FatTreeTopology(k=8)
        cores = {tree.path(0, 127, ("flow", i))[2] for i in range(200)}
        assert len(cores) > 4  # many of the 16 cores exercised

    def test_self_path_rejected(self):
        with pytest.raises(ValueError):
            FatTreeTopology(k=4).path(3, 3, ("f",))


class TestFlows:
    def test_uniform_flows(self):
        generator = FlowGenerator(num_hosts=16, host_ip=str, seed=1)
        flows = generator.uniform(100)
        assert len(flows) == 100
        for flow in flows:
            assert flow.src_host != flow.dst_host
            assert 0 <= flow.src_host < 16
            assert flow.protocol in (6, 17)
            assert len(flow.five_tuple) == 5

    def test_flow_endpoints_use_the_host_ip_plan(self):
        tree = FatTreeTopology(k=4)
        flows = FlowGenerator(tree.num_hosts, host_ip=tree.host_ip, seed=3).uniform(50)
        for flow in flows:
            assert flow.src_host != flow.dst_host
            assert flow.five_tuple[:2] == (
                tree.host_ip(flow.src_host),
                tree.host_ip(flow.dst_host),
            )

    def test_deterministic_by_seed(self):
        a = FlowGenerator(num_hosts=16, host_ip=str, seed=5).uniform(10)
        b = FlowGenerator(num_hosts=16, host_ip=str, seed=5).uniform(10)
        assert a == b
        c = FlowGenerator(num_hosts=16, host_ip=str, seed=6).uniform(10)
        assert a != c

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowGenerator(num_hosts=1, host_ip=str)
        with pytest.raises(ValueError):
            FlowGenerator(num_hosts=4, host_ip=str).uniform(-1)


class TestPathCodec:
    @pytest.mark.parametrize("hops", [[7], [1, 2, 3], [10, 20, 30, 40, 50]])
    def test_roundtrip(self, hops):
        assert decode_path(encode_path(hops)) == hops

    def test_value_is_160_bits(self):
        """Figure 4's '160-bit values'."""
        assert len(encode_path([1, 2, 3, 4, 5])) == 20

    def test_switch_zero_distinguished_from_padding(self):
        assert decode_path(encode_path([0])) == [0]

    def test_validation(self):
        with pytest.raises(ValueError):
            encode_path([])
        with pytest.raises(ValueError):
            encode_path([1, 2, 3, 4, 5, 6])
        with pytest.raises(ValueError):
            decode_path(b"\x00" * 19)


class TestLossModel:
    def test_no_loss(self):
        loss = LossModel(0.0)
        assert all(loss.deliver() for _ in range(100))
        assert loss.lost == 0

    def test_full_loss(self):
        loss = LossModel(1.0)
        assert not any(loss.deliver() for _ in range(100))
        assert loss.delivered == 0

    def test_partial_loss_rate(self):
        loss = LossModel(0.3, seed=1)
        outcomes = [loss.deliver() for _ in range(10000)]
        rate = 1 - sum(outcomes) / len(outcomes)
        assert 0.27 < rate < 0.33

    def test_validation(self):
        with pytest.raises(ValueError):
            LossModel(1.5)


class TestIntSimulation:
    def make_sim(self, **kwargs):
        tree = FatTreeTopology(k=4)
        config = DartConfig(slots_per_collector=1 << 12, num_collectors=2)
        return IntSimulation(tree, config, **kwargs), tree

    def test_trace_and_query(self):
        sim, tree = self.make_sim()
        flows = FlowGenerator(tree.num_hosts, host_ip=tree.host_ip, seed=0).uniform(50)
        records = sim.trace_flows(flows)
        assert len(records) == 50
        evaluation = sim.evaluate()
        assert evaluation.success_rate > 0.99  # trivial load
        assert evaluation.wrong == 0

    def test_query_path_decodes_ground_truth(self):
        sim, tree = self.make_sim()
        flow = FlowGenerator(tree.num_hosts, host_ip=tree.host_ip).uniform(1)[0]
        record = sim.trace_flow(flow)
        result = sim.query_path(flow)
        assert result.answered
        assert decode_path(result.value) == record.path

    def test_packet_level_equivalence(self):
        """Packet-level and fast-path simulations agree on stored bytes."""
        tree = FatTreeTopology(k=4)
        config = DartConfig(slots_per_collector=1 << 12, num_collectors=1)
        flows = FlowGenerator(tree.num_hosts, host_ip=tree.host_ip, seed=3).uniform(30)
        fast = IntSimulation(tree, config)
        wire = IntSimulation(tree, config, packet_level=True)
        fast.trace_flows(flows)
        wire.trace_flows(flows)
        assert (
            fast.cluster[0].region.snapshot() == wire.cluster[0].region.snapshot()
        )

    def test_loss_degrades_but_redundancy_protects(self):
        """With N=2 and independent 20% report loss, most flows survive."""
        tree = FatTreeTopology(k=4)
        config = DartConfig(slots_per_collector=1 << 14, num_collectors=1)
        sim = IntSimulation(tree, config, loss=LossModel(0.2, seed=7))
        flows = FlowGenerator(tree.num_hosts, host_ip=tree.host_ip, seed=1).uniform(
            500
        )
        sim.trace_flows(flows)
        evaluation = sim.evaluate()
        # P(both copies lost) = 0.04 -> ~96% retrievable.
        assert evaluation.success_rate > 0.93

    def test_value_size_validated(self):
        tree = FatTreeTopology(k=4)
        with pytest.raises(ValueError):
            IntSimulation(tree, DartConfig(value_bytes=8, slots_per_collector=64))

    def test_evaluation_counts_partition(self):
        sim, tree = self.make_sim()
        flows = FlowGenerator(tree.num_hosts, host_ip=tree.host_ip).uniform(40)
        sim.trace_flows(flows)
        evaluation = sim.evaluate()
        assert evaluation.correct + evaluation.empty + evaluation.wrong == (
            evaluation.total
        )
