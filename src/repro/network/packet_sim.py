"""Fully packet-level INT path tracing: data packets carry the telemetry.

The highest-fidelity pipeline in the reproduction.  A source host emits a
real UDP datagram whose payload is an INT shim + metadata stack
(:mod:`repro.telemetry.int_headers`); every switch on the ECMP path pushes
its 32-bit switch ID onto the stack *inside the packet bytes*; the
last-hop switch plays INT sink -- it strips the stack, restores the user
payload for delivery, and hands <5-tuple> -> <path> to its
:class:`~repro.switch.dart_switch.DartSwitch` logic, which crafts the
RoCEv2 report frames the collector NICs execute.

Every arrow in the paper's Figure 2 is therefore exercised with real
bytes: data packet -> INT accumulation -> mirror -> RDMA write -> query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.core.client import DartQueryClient
from repro.core.config import DartConfig
from repro.collector.collector import CollectorCluster
from repro.fabric.fabric import Fabric, InlineFabric
from repro.network.flows import Flow
from repro.network.simulation import encode_path
from repro.network.topology import FatTreeTopology
from repro.switch.control_plane import SwitchControlPlane
from repro.switch.dart_switch import DartSwitch
from repro.telemetry.int_headers import IntStack, new_probe


@dataclass
class DeliveryResult:
    """What came out the far end of one packet's journey."""

    delivered_payload: bytes
    recorded_path: List[int]
    #: Report frames the fabric did not report lost (executed or in flight).
    report_frames: int


class IntTransitSwitch:
    """Transit behaviour: push our switch ID into the packet's INT stack."""

    def __init__(self, switch_id: int) -> None:
        self.switch_id = switch_id
        self.packets_seen = 0
        self.hops_recorded = 0

    def process(self, payload: bytes) -> bytes:
        """Rewrite the INT payload in place (bytes in, bytes out)."""
        self.packets_seen += 1
        stack = IntStack.unpack(payload)
        if stack.push_hop(self.switch_id):
            self.hops_recorded += 1
        return stack.pack()


class IntSinkSwitch(IntTransitSwitch):
    """Sink behaviour: record our hop, strip INT, report through DART."""

    def __init__(self, switch_id: int, dart: DartSwitch) -> None:
        super().__init__(switch_id)
        self.dart = dart
        self.reports_emitted = 0

    def finish(self, flow: Flow, payload: bytes) -> Tuple[bytes, List[int], int]:
        """Process the final hop and emit the report into the DART switch's
        fabric: returns (user payload, path, frames not reported lost)."""
        rewritten = self.process(payload)
        stack = IntStack.unpack(rewritten)
        path, user_payload = stack.strip()
        executed = self.dart.report_into(flow.five_tuple, encode_path(path))
        self.reports_emitted += 1
        return user_payload, path, executed


class PacketLevelIntNetwork:
    """The full fabric: hosts, INT switches, DART switches, collectors."""

    def __init__(
        self,
        topology: FatTreeTopology,
        config: DartConfig,
        max_int_hops: int = 8,
        fabric: Optional[Fabric] = None,
        scraper=None,
        num_standbys: int = 0,
    ) -> None:
        self.topology = topology
        self.config = config
        self.max_int_hops = max_int_hops
        self.cluster = CollectorCluster(config, num_standbys=num_standbys)
        self.fabric = fabric if fabric is not None else InlineFabric()
        self.cluster.attach_to(self.fabric)
        self.client = DartQueryClient(config, reader=self.cluster.read_slot)
        self.plane = SwitchControlPlane(config)
        plane = self.plane

        self.transits: Dict[int, IntTransitSwitch] = {}
        self.sinks: Dict[int, IntSinkSwitch] = {}
        for node in topology.switches:
            dart = DartSwitch(config, switch_id=node.switch_id, fabric=self.fabric)
            plane.connect_switch(dart, self.cluster)
            self.transits[node.switch_id] = IntTransitSwitch(node.switch_id)
            self.sinks[node.switch_id] = IntSinkSwitch(node.switch_id, dart)
        #: Optional MetricsScraper driven by the packet count (one logical
        #: tick per :meth:`send`), keeping series cadence deterministic.
        self.scraper = scraper
        #: Optional FleetController, ticked on the same logical clock
        #: (see :meth:`enable_control`).
        self.controller = None
        self.packets_sent = 0

    def enable_control(self, *, fail_after: int = 2, tick_interval: int = 50):
        """Attach a fleet controller, ticked on the packet clock.

        Every :meth:`send` advances the logical clock the controller's
        :meth:`~repro.control.controller.FleetController.maybe_tick`
        watches, so failure detection and failover run *inside* the
        simulation timeline -- convergence is measured in packets, not
        wall-clock.  Returns the controller for direct driving in tests.
        """
        from repro.control.controller import FleetController

        self.controller = FleetController(
            self.cluster,
            self.plane,
            self.fabric,
            fail_after=fail_after,
            tick_interval=tick_interval,
        )
        return self.controller

    def kill_collector(self, node_id: int) -> None:
        """Chaos hook: crash one collector host mid-run."""
        self.cluster.node(node_id).fail()

    def send(self, flow: Flow, user_payload: bytes = b"app-data") -> DeliveryResult:
        """Send one INT-enabled datagram from src to dst host."""
        self.packets_sent += 1
        path = self.topology.path(flow.src_host, flow.dst_host, flow.five_tuple)
        payload = new_probe(user_payload, max_hops=self.max_int_hops).pack()

        # Transit hops rewrite the packet bytes; the last hop is the sink.
        for switch_id in path[:-1]:
            payload = self.transits[switch_id].process(payload)
        delivered, recorded, executed = self.sinks[path[-1]].finish(flow, payload)
        obs.get_journal().advance(self.packets_sent)
        if self.scraper is not None:
            self.scraper.maybe_scrape(self.packets_sent)
        if self.controller is not None:
            self.controller.maybe_tick(self.packets_sent)
        return DeliveryResult(
            delivered_payload=delivered,
            recorded_path=recorded,
            report_frames=executed,
        )

    def query_path(self, flow: Flow):
        """Operator query for a flow's recorded path."""
        return self.client.query(flow.five_tuple)
