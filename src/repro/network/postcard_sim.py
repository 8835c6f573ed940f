"""Postcard-mode INT over the fat tree.

In postcard mode every switch on a flow's path reports its own local
measurement under (switchID, flow 5-tuple) -- Table 1's second row.  Where
in-band INT produces one report per flow, postcards produce one per hop,
multiplying both the report rate and the number of live keys by the mean
path length.  This simulation quantifies that trade against in-band mode
at equal memory, which is the capacity-planning decision the two Table-1
rows imply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.config import DartConfig
from repro.collector.store import DartStore
from repro.network.flows import Flow
from repro.network.topology import FatTreeTopology
from repro.telemetry.postcards import PostcardBackend, PostcardMeasurement


@dataclass
class PostcardEvaluation:
    """Hop-level ground-truth comparison."""

    flows: int
    hops_total: int
    hops_correct: int
    hops_empty: int
    hops_wrong: int
    flows_fully_traceable: int

    @property
    def hop_success_rate(self) -> float:
        """Fraction of (hop, flow) postcards retrieved correctly."""
        return self.hops_correct / self.hops_total if self.hops_total else float("nan")


class PostcardSimulation:
    """Per-hop postcard reporting for every traced flow."""

    def __init__(self, topology: FatTreeTopology, config: DartConfig) -> None:
        self.topology = topology
        self.config = config
        self.store = DartStore(config)
        self.backend = PostcardBackend(self.store)
        self._truth: Dict[tuple, PostcardMeasurement] = {}
        self._paths: Dict[tuple, List[int]] = {}
        self.reports_sent = 0

    def trace_flow(self, flow: Flow) -> List[int]:
        """Route one flow; every hop emits a postcard."""
        path = self.topology.path(flow.src_host, flow.dst_host, flow.five_tuple)
        self._paths[flow.five_tuple] = path
        for hop_index, switch_id in enumerate(path):
            measurement = PostcardMeasurement(
                timestamp_ns=1_000_000 * hop_index + switch_id,
                queue_depth=switch_id % 64,
                egress_port=hop_index,
                hop_latency_ns=500 + 13 * switch_id,
            )
            self.backend.switch_report(switch_id, flow, measurement)
            self._truth[(switch_id, flow.five_tuple)] = measurement
            self.reports_sent += 1
        return path

    def trace_flows(self, flows: Sequence[Flow]) -> None:
        """Trace a batch of flows (one postcard per hop each)."""
        for flow in flows:
            self.trace_flow(flow)

    def evaluate(self) -> PostcardEvaluation:
        """Query every (hop, flow) postcard against ground truth."""
        flows_seen = list(self._paths)
        hops_correct = hops_empty = hops_wrong = 0
        fully = 0
        for five_tuple in flows_seen:
            all_hops_good = True
            for switch_id in self._paths[five_tuple]:
                key = (switch_id, five_tuple)
                stored = self.backend.query(key)
                if stored is None:
                    hops_empty += 1
                    all_hops_good = False
                elif stored == self._truth[key]:
                    hops_correct += 1
                else:
                    hops_wrong += 1
                    all_hops_good = False
            if all_hops_good:
                fully += 1
        return PostcardEvaluation(
            flows=len(flows_seen),
            hops_total=hops_correct + hops_empty + hops_wrong,
            hops_correct=hops_correct,
            hops_empty=hops_empty,
            hops_wrong=hops_wrong,
            flows_fully_traceable=fully,
        )


def mode_comparison_rows(
    *,
    num_flows: int = 5_000,
    memory_bytes: int = 1_200_000,
    k: int = 8,
    seed: int = 0,
) -> List[dict]:
    """In-band vs postcard INT at equal collector memory.

    In-band stores one key per flow; postcards store one per hop.  At the
    same memory budget the postcard load factor is ~path-length times
    higher, so queryability drops -- the structural cost of per-hop
    visibility the two Table-1 rows trade.
    """
    from repro.network.flows import FlowGenerator
    from repro.network.simulation import IntSimulation

    tree = FatTreeTopology(k=k)
    flows = FlowGenerator(tree.num_hosts, host_ip=tree.host_ip, seed=seed).uniform(
        num_flows
    )
    rows = []

    inband_config = DartConfig.for_memory_budget(memory_bytes, value_bytes=20, seed=seed)
    inband = IntSimulation(tree, inband_config)
    inband.trace_flows(flows)
    inband_eval = inband.evaluate()
    rows.append(
        {
            "mode": "in-band INT",
            "reports": inband.reports_sent,
            "live_keys": inband_eval.total,
            "load_factor": inband_config.load_factor(inband_eval.total),
            "success_rate": inband_eval.success_rate,
            "per_hop_visibility": False,
        }
    )

    postcard_config = DartConfig.for_memory_budget(
        memory_bytes, value_bytes=20, seed=seed
    )
    postcards = PostcardSimulation(tree, postcard_config)
    postcards.trace_flows(flows)
    postcard_eval = postcards.evaluate()
    rows.append(
        {
            "mode": "INT postcards",
            "reports": postcards.reports_sent,
            "live_keys": postcard_eval.hops_total,
            "load_factor": postcard_config.load_factor(postcard_eval.hops_total),
            "success_rate": postcard_eval.hop_success_rate,
            "per_hop_visibility": True,
        }
    )
    return rows
