#!/usr/bin/env python
"""INT path tracing on a fat tree -- the paper's running example.

Flows cross a k-ary fat tree accumulating one 32-bit switch ID per hop
(in-band INT).  The last-hop switch pushes <flow 5-tuple> -> <160-bit
path> into DART over RDMA; the operator later asks "which path did this
flow take?" without any collector CPU having touched the reports.

The script runs the full loop -- topology, ECMP routing, INT accumulation,
DART reporting with report loss, ground-truth evaluation -- and finishes
with a packet-level pass (``PacketLevelIntNetwork``) where INT metadata
rides in real datagram bytes and real RoCEv2 frames (iCRC and all) carry
the reports into the collector NIC.

Run:  python examples/int_path_tracing.py
"""

from repro.core.config import DartConfig
from repro.network.flows import FlowGenerator
from repro.network.packet_sim import PacketLevelIntNetwork
from repro.network.simulation import IntSimulation, LossModel, decode_path, encode_path
from repro.network.topology import FatTreeTopology


def main() -> None:
    tree = FatTreeTopology(k=8)
    print(
        f"fat tree k=8: {tree.num_hosts} hosts, {tree.num_switches} switches"
    )

    # Budget: the paper's 300 bytes of collector memory per flow.
    num_flows = 20_000
    config = DartConfig.for_memory_budget(
        300 * num_flows, redundancy=2, value_bytes=20
    )
    print(
        f"DART config: N={config.redundancy}, "
        f"{config.slots_per_collector} slots of {config.slot_bytes} B\n"
    )

    # 2% of telemetry report packets are lost in the network: DART keeps
    # no retransmit state at switches; redundancy absorbs the loss.
    sim = IntSimulation(tree, config, loss=LossModel(0.02, seed=1))
    generator = FlowGenerator(tree.num_hosts, host_ip=tree.host_ip, seed=1)
    flows = generator.uniform(num_flows)
    sim.trace_flows(flows)

    # Operator view: pick a flow and ask for its path.
    flow = flows[123]
    result = sim.query_path(flow)
    print(f"flow {flow.five_tuple}")
    print(f"  actual path:   {sim.records[123].path}")
    print(f"  queried path:  {decode_path(result.value)}")
    hops = [tree.switches[s].role.value for s in decode_path(result.value)]
    print(f"  hop roles:     {' -> '.join(hops)}\n")

    # Network-wide ground truth evaluation.
    evaluation = sim.evaluate()
    print(
        f"evaluated {evaluation.total} flows at load "
        f"{config.load_factor(evaluation.total):.3f} with 2% report loss:"
    )
    print(f"  correct paths returned: {evaluation.success_rate:.2%}")
    print(f"  empty returns:          {evaluation.empty / evaluation.total:.2%}")
    print(f"  wrong paths:            {evaluation.error_rate:.2%}\n")

    # Packet-level pass: every hop rewrites the datagram's INT stack and
    # every report is a real RoCEv2 frame through a real (modelled) RNIC
    # -- byte-identical storage, zero collector CPU.
    small_tree = FatTreeTopology(k=4)
    network = PacketLevelIntNetwork(
        small_tree, DartConfig(slots_per_collector=1 << 14)
    )
    packet_flows = FlowGenerator(
        small_tree.num_hosts, host_ip=small_tree.host_ip, seed=2
    ).uniform(500)
    paths = [network.send(flow).recorded_path for flow in packet_flows]
    correct = sum(
        network.query_path(flow).value == encode_path(path)
        for flow, path in zip(packet_flows, paths)
    )
    nic_writes = sum(
        c.nic.counters.writes_executed for c in network.cluster
    )
    print(
        f"packet-level pass: {nic_writes} RoCEv2 WRITEs executed by NICs, "
        f"success {correct / len(packet_flows):.2%}"
    )


if __name__ == "__main__":
    main()
