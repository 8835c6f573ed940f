"""Section 6 prototype checks: the switch pipeline and its resources.

The paper's prototype claims we verify in software:

- the switch crafts complete, valid RoCEv2 frames (iCRC included) that a
  stock RNIC executes;
- ~20 bytes of on-switch SRAM per collector, supporting tens of thousands
  of collectors;
- per-collector PSN counters in a register array keep every collector's
  packet stream well-formed.

The rows double as the prototype microbenchmark: end-to-end frames per
second through switch -> wire bytes -> NIC parse -> DMA in this model.
"""

from __future__ import annotations

import time
from typing import List

from repro.core.client import DartQueryClient
from repro.core.config import DartConfig
from repro.collector.collector import CollectorCluster
from repro.fabric.fabric import InlineFabric
from repro.rdma.packets import RoceV2Packet
from repro.switch.control_plane import SwitchControlPlane
from repro.switch.dart_switch import DartSwitch


def prototype_resource_rows(collector_counts=(1, 100, 10_000, 50_000)) -> List[dict]:
    """SRAM accounting across collector fleet sizes (the ~20 B/collector
    claim and the tens-of-thousands scale)."""
    config = DartConfig(slots_per_collector=1 << 10)
    rows = []
    for count in collector_counts:
        switch = DartSwitch(config, switch_id=0, max_collectors=max(count, 1))
        per_collector = switch.sram_bytes_per_collector()
        rows.append(
            {
                "collectors": count,
                "sram_bytes_per_collector": per_collector,
                "total_sram_kb": count * per_collector / 1024,
                "fits_tofino_sram": count * per_collector < 10 * 1024 * 1024,
            }
        )
    return rows


def prototype_pipeline_rows(
    reports: int = 2_000, num_collectors: int = 4, seed: int = 0
) -> List[dict]:
    """End-to-end packet path: craft, parse, validate, DMA, query."""
    config = DartConfig(
        slots_per_collector=1 << 14, num_collectors=num_collectors, seed=seed
    )
    cluster = CollectorCluster(config)
    fabric = cluster.attach_to(InlineFabric())
    switch = DartSwitch(config, switch_id=7, fabric=fabric)
    SwitchControlPlane(config).connect_switch(switch, cluster)
    client = DartQueryClient(config, reader=cluster.read_slot)

    start = time.perf_counter()
    for i in range(reports):
        switch.report_into(("flow", i), i.to_bytes(20, "big"))
    elapsed = time.perf_counter() - start

    frames_emitted = switch.counters.reports_emitted
    queried = sum(
        1 for i in range(reports) if client.query(("flow", i)).answered
    )
    executed = sum(c.nic.counters.writes_executed for c in cluster)
    dropped = sum(c.nic.counters.frames_dropped for c in cluster)
    sample_frame = switch.report(("probe",), b"\x00" * 20)[0][1]
    parsed = RoceV2Packet.unpack(sample_frame)

    return [
        {
            "reports": reports,
            "frames_emitted": frames_emitted,
            "frames_executed": executed,
            "frames_dropped": dropped,
            "frame_bytes_each": len(sample_frame),
            "icrc_valid": True,  # unpack() above would have raised
            "payload_bytes": len(parsed.payload),
            "queryable_fraction": queried / reports,
            "model_frames_per_sec": switch.counters.reports_emitted / elapsed,
        }
    ]


def loss_robustness_rows(loss_rates=(0.0, 0.05, 0.2, 0.5), seed: int = 1) -> List[dict]:
    """Report-loss robustness: the 'limited statefulness' challenge of
    section 1 -- redundancy absorbs loss without switch retransmit state."""
    from repro.network.flows import FlowGenerator
    from repro.network.simulation import IntSimulation, LossModel
    from repro.network.topology import FatTreeTopology

    tree = FatTreeTopology(k=4)
    rows = []
    for loss_rate in loss_rates:
        config = DartConfig(slots_per_collector=1 << 15, num_collectors=1, seed=seed)
        sim = IntSimulation(tree, config, loss=LossModel(loss_rate, seed=seed))
        flows = FlowGenerator(tree.num_hosts, host_ip=tree.host_ip, seed=seed).uniform(
            2_000
        )
        sim.trace_flows(flows)
        evaluation = sim.evaluate()
        rows.append(
            {
                "report_loss": loss_rate,
                "expected_both_copies_lost": loss_rate**2,
                "success_rate": evaluation.success_rate,
                "empty_rate": evaluation.empty / evaluation.total,
            }
        )
    return rows
