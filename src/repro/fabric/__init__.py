"""The telemetry fabric: a pluggable transport seam between switches and NICs.

Every RoCEv2 frame in the reproduction -- switch-crafted report WRITEs,
operator READ requests, Fetch&Add counter updates -- reaches an RNIC
through a :class:`Fabric`.  The fabric is the single point where delivery
policy lives, so the layers on either side (switch models, query clients,
collector fleets) stay transport-agnostic:

- :class:`InlineFabric` -- synchronous direct delivery, byte-identical to
  the historical direct ``receive_frame`` calls (proven by the
  equivalence tests);
- :class:`BufferedFabric` -- per-link queues with configurable flush
  thresholds, amortising delivery cost per flush instead of per packet;
- :class:`ImpairedFabric` -- a wrapper injecting loss, duplication and
  reordering, exercising the RNIC's PSN and drop logic with real frames.

This seam is what later scaling work (sharded collector fleets, async or
multiprocess delivery backends) plugs into: a new transport implements
``send`` (one frame), ``send_batch`` (one columnar batch) and ``poll``
(the response leg), and every existing layer picks it up unchanged.
"""

from repro.fabric.fabric import (
    BufferedFabric,
    Fabric,
    FabricCounters,
    FabricPort,
    InlineFabric,
)
from repro.fabric.impaired import ImpairedFabric

__all__ = [
    "BufferedFabric",
    "Fabric",
    "FabricCounters",
    "FabricPort",
    "ImpairedFabric",
    "InlineFabric",
]
