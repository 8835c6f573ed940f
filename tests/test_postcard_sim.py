"""Tests for postcard-mode simulation (repro.network.postcard_sim)."""

from repro.core.config import DartConfig
from repro.network.flows import FlowGenerator
from repro.network.postcard_sim import PostcardSimulation, mode_comparison_rows
from repro.network.topology import FatTreeTopology


def make_sim(slots=1 << 14):
    tree = FatTreeTopology(k=4)
    config = DartConfig(slots_per_collector=slots, num_collectors=1)
    return PostcardSimulation(tree, config), tree


class TestPostcardSimulation:
    def test_every_hop_reports(self):
        sim, tree = make_sim()
        flows = FlowGenerator(tree.num_hosts, host_ip=tree.host_ip, seed=0).uniform(20)
        total_hops = 0
        for flow in flows:
            path = sim.trace_flow(flow)
            total_hops += len(path)
        assert sim.reports_sent == total_hops

    def test_hop_queries_return_truth(self):
        sim, tree = make_sim()
        flow = FlowGenerator(tree.num_hosts, host_ip=tree.host_ip, seed=1).uniform(1)[0]
        path = sim.trace_flow(flow)
        for hop_index, switch_id in enumerate(path):
            measurement = sim.backend.hop_measurement(switch_id, flow)
            assert measurement is not None
            assert measurement.egress_port == hop_index

    def test_off_path_switch_empty(self):
        sim, tree = make_sim()
        flow = FlowGenerator(tree.num_hosts, host_ip=tree.host_ip, seed=2).uniform(1)[0]
        path = sim.trace_flow(flow)
        off_path = next(
            s.switch_id for s in tree.switches if s.switch_id not in path
        )
        assert sim.backend.hop_measurement(off_path, flow) is None

    def test_evaluation_partitions(self):
        sim, tree = make_sim(slots=1 << 10)
        flows = FlowGenerator(tree.num_hosts, host_ip=tree.host_ip, seed=3).uniform(
            300
        )
        sim.trace_flows(flows)
        evaluation = sim.evaluate()
        assert (
            evaluation.hops_correct + evaluation.hops_empty + evaluation.hops_wrong
            == evaluation.hops_total
        )
        assert 0 < evaluation.hop_success_rate <= 1

    def test_low_load_fully_traceable(self):
        sim, tree = make_sim(slots=1 << 15)
        flows = FlowGenerator(tree.num_hosts, host_ip=tree.host_ip, seed=4).uniform(50)
        sim.trace_flows(flows)
        evaluation = sim.evaluate()
        assert evaluation.flows_fully_traceable > 0.95 * evaluation.flows
        assert evaluation.hops_wrong == 0


class TestModeComparison:
    def test_postcards_cost_more_for_more_visibility(self):
        rows = mode_comparison_rows(num_flows=2_000, memory_bytes=400_000, k=4)
        by = {r["mode"]: r for r in rows}
        inband, postcards = by["in-band INT"], by["INT postcards"]
        # Postcards multiply reports and live keys by the mean path length.
        assert postcards["reports"] > 2 * inband["reports"]
        assert postcards["load_factor"] > 2 * inband["load_factor"]
        # At equal memory, in-band is more queryable...
        assert inband["success_rate"] > postcards["success_rate"]
        # ...but postcards buy per-hop visibility.
        assert postcards["per_hop_visibility"] and not inband["per_hop_visibility"]
