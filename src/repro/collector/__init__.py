"""Collector-side components.

A DART collector is an ordinary server that contributes a registered memory
region and an RDMA NIC; its CPU is involved only when an operator runs a
query.  This package assembles the substrates into deployable pieces:

- :mod:`repro.collector.collector` -- a collector host (region + RNIC +
  per-switch responder QPs) and the fleet-level :class:`CollectorCluster`.
- :mod:`repro.collector.store` -- :class:`DartStore`, the high-level
  key-value facade combining a reporter and a query client.
- :mod:`repro.collector.counters` -- Fetch&Add-based flow counters living
  directly in collector memory (paper section 7).
- :mod:`repro.collector.epochs` -- epoch-based snapshot/persistence for
  historical queries (paper section 5.2.1).
"""

from repro.collector.collector import Collector, CollectorCluster, CollectorEndpoint
from repro.collector.store import DartStore
from repro.collector.counters import CounterStore
from repro.collector.epochs import EpochArchive, EpochManager

__all__ = [
    "Collector",
    "CollectorCluster",
    "CollectorEndpoint",
    "CounterStore",
    "DartStore",
    "EpochArchive",
    "EpochManager",
]
