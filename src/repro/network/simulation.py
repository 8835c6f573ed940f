"""End-to-end INT path-tracing simulation over a fat tree.

This driver reproduces the paper's running example: each flow's packets
cross the fabric accumulating one 32-bit switch ID per hop (in-band INT);
the final hop acts as the INT *sink* and pushes <5-tuple> -> <path> into
DART.  Reports take the reporter fast path (direct slot writes through a
seeded loss model), which pushes flow counts into the tens of thousands.
The packet-level INT driver is
:class:`~repro.network.packet_sim.PacketLevelIntNetwork`: same addressing,
real INT packet bytes and RoCEv2 frames, byte-identical regions.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.client import DartQueryClient
from repro.core.config import DartConfig
from repro.core.policies import QueryResult, ReturnPolicy
from repro.core.reporter import DartReporter
from repro.collector.collector import CollectorCluster
from repro.network.flows import Flow
from repro.network.topology import FatTreeTopology

#: INT path values are fixed-width: 5 hops x 32-bit switch IDs = 160 bits,
#: the value size of the paper's Figure 4.
MAX_HOPS = 5


def encode_path(switch_ids: Sequence[int]) -> bytes:
    """Pack up to 5 switch IDs into the 20-byte INT value.

    Unused trailing hops are encoded as ``0xFFFFFFFF`` so that a 1-hop
    path is distinguishable from a path through switch 0.
    """
    if not 1 <= len(switch_ids) <= MAX_HOPS:
        raise ValueError(f"paths must have 1..{MAX_HOPS} hops, got {len(switch_ids)}")
    padded = list(switch_ids) + [0xFFFFFFFF] * (MAX_HOPS - len(switch_ids))
    return struct.pack(">5I", *padded)


def decode_path(value: bytes) -> List[int]:
    """Inverse of :func:`encode_path`."""
    if len(value) != 20:
        raise ValueError(f"INT path values are 20 bytes, got {len(value)}")
    hops = struct.unpack(">5I", value)
    return [hop for hop in hops if hop != 0xFFFFFFFF]


class LossModel:
    """Bernoulli report-packet loss, seeded for reproducibility."""

    def __init__(self, loss_probability: float = 0.0, seed: int = 0) -> None:
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError(
                f"loss_probability must be in [0, 1], got {loss_probability}"
            )
        self.loss_probability = loss_probability
        self._rng = random.Random(seed)
        self.delivered = 0
        self.lost = 0

    def deliver(self) -> bool:
        """Whether the next packet survives the network."""
        if self.loss_probability and self._rng.random() < self.loss_probability:
            self.lost += 1
            return False
        self.delivered += 1
        return True


@dataclass
class PathRecord:
    """Ground truth for one simulated flow."""

    flow: Flow
    path: List[int]

    @property
    def key(self):
        """The DART telemetry key (flow 5-tuple)."""
        return self.flow.five_tuple

    @property
    def value(self) -> bytes:
        """The encoded 20-byte path value."""
        return encode_path(self.path)


class IntSimulation:
    """Drives INT path tracing over a fat tree into a DART deployment.

    Parameters
    ----------
    topology:
        The fabric; paths come from its ECMP routing.
    config:
        DART deployment config (value_bytes must fit the 20-byte paths).
    loss:
        Optional report-loss model applied on the switch-to-collector hop.
    scraper:
        Optional :class:`~repro.obs.timeseries.MetricsScraper` driven by
        the simulation's logical clock: after every report the simulation
        calls ``scraper.maybe_scrape(reports_sent)``, so time-series
        cadence is deterministic in report counts, not wall-clock.
    """

    def __init__(
        self,
        topology: FatTreeTopology,
        config: DartConfig,
        *,
        loss: Optional[LossModel] = None,
        scraper=None,
    ) -> None:
        if config.value_bytes < 20:
            raise ValueError(
                "INT path tracing needs value_bytes >= 20 (5 hops x 32 bits)"
            )
        self.topology = topology
        self.config = config
        self.cluster = CollectorCluster(config)
        self.reporter = DartReporter(config)
        self.client = DartQueryClient(config, reader=self.cluster.read_slot)
        self.loss = loss if loss is not None else LossModel(0.0)
        self.scraper = scraper
        self.records: List[PathRecord] = []
        self.reports_sent = 0

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------

    def trace_flow(self, flow: Flow) -> PathRecord:
        """Route one flow, accumulate INT metadata, report at the sink."""
        path = self.topology.path(flow.src_host, flow.dst_host, flow.five_tuple)
        record = PathRecord(flow=flow, path=path)
        self.records.append(record)
        self._report(record)
        return record

    def trace_flows(self, flows: Sequence[Flow]) -> List[PathRecord]:
        """Trace a batch of flows."""
        return [self.trace_flow(flow) for flow in flows]

    def _report(self, record: PathRecord) -> None:
        self.reports_sent += 1
        for write in self.reporter.writes_for(record.key, record.value):
            if self.loss.deliver():
                self.cluster[write.collector_id].write_slot(
                    write.slot_index, write.payload
                )
        if self.scraper is not None:
            self.scraper.maybe_scrape(self.reports_sent)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def query_path(self, flow: Flow) -> QueryResult:
        """Query the stored path of one flow."""
        return self.client.query(flow.five_tuple)

    def evaluate(self, policy: Optional[ReturnPolicy] = None) -> "IntEvaluation":
        """Query every traced flow and compare against ground truth.

        A flow counts as *correct* only if the returned bytes decode to the
        exact switch path the flow actually took -- the end-to-end success
        criterion behind the paper's headline claim.
        """
        truth: Dict[tuple, bytes] = {r.key: r.value for r in self.records}
        evaluation = IntEvaluation(total=len(truth))
        for key, value in truth.items():
            result = self.client.query(key, policy=policy)
            if not result.answered:
                evaluation.empty += 1
            elif result.value == value:
                evaluation.correct += 1
            else:
                evaluation.wrong += 1
        return evaluation


@dataclass
class IntEvaluation:
    """Ground-truth comparison over all traced flows."""

    total: int
    correct: int = 0
    empty: int = 0
    wrong: int = 0

    @property
    def success_rate(self) -> float:
        """Correct paths / total flows."""
        return self.correct / self.total if self.total else float("nan")

    @property
    def error_rate(self) -> float:
        """Wrong paths / total flows."""
        return self.wrong / self.total if self.total else float("nan")
