"""Network substrate: topology, workloads and the INT simulation driver.

The paper's running example is INT path tracing on a 5-hop fat-tree
(sections 1 and 5): every flow's packets accumulate the switch IDs they
traverse, and the last hop reports <flow 5-tuple> -> <path> to DART.  This
package provides the pieces:

- :mod:`repro.network.topology` -- k-ary fat-tree construction with ECMP
  path selection (up to 5 switch hops between hosts in different pods).
- :mod:`repro.network.flows` -- 5-tuple flow workload generators with
  uniform and Zipf popularity.
- :mod:`repro.network.simulation` -- drives flows across the topology,
  accumulates INT metadata hop by hop, and reports through DART at the
  sink (in-process slot writes), with optional report loss injection.
- :mod:`repro.network.packet_sim` -- the packet-level INT driver: the INT
  stack rides in datagram bytes and each sink's ``DartSwitch`` emits real
  RoCEv2 frames into a fabric.
- :mod:`repro.network.postcard_sim` -- the postcard-mode twin: one report
  per hop, keyed by (switchID, 5-tuple).
- :mod:`repro.network.capacity` -- collection-capacity models and the
  telemetry-storm queue simulation (section 2's argument, quantified).
"""

from repro.network.topology import FatTreeTopology, SwitchNode
from repro.network.flows import Flow, FlowGenerator
from repro.network.simulation import IntSimulation, LossModel, PathRecord
from repro.network.postcard_sim import PostcardSimulation
from repro.network.capacity import simulate_ingestion

__all__ = [
    "FatTreeTopology",
    "Flow",
    "FlowGenerator",
    "IntSimulation",
    "LossModel",
    "PathRecord",
    "PostcardSimulation",
    "SwitchNode",
    "simulate_ingestion",
]
