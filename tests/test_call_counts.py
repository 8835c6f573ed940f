"""Deterministic cost of the read leg: Python and C calls, not seconds.

Wall time on a shared host moves with its neighbours; the number of calls a
READ round trip or a served sweep makes does not.  A matrix READ's cost is
its calls' fixed floor, not its rows (DESIGN.md, "Where a matrix READ's
round trip goes"), so two guards: a matrix round trip makes the same calls
at 2 rows as at 32, and a 64-key sweep over four shards makes no more calls
than this tree records.  Counted with ``sys.setprofile`` (stdlib only): a
``call`` event per Python frame entered and a ``c_call`` per C function
called from Python.
"""

import sys

import repro.primitives.clients as clients
from repro.collector.collector import CollectorCluster
from repro.core.config import DartConfig
from repro.fabric import InlineFabric
from repro.primitives.clients import OneSidedReader
from repro.primitives.translator import ResponseDemux

from .rigs import KEYS, READER_QP, SLOTS, SWEEP, fleet_rig

#: Calls one served 64-key sweep over four shards makes, cache bypassed:
#: (Python, C).  Recorded on this tree; a change that adds calls to the read
#: leg raises it here, with its reason, or fails.
SWEEP_CALLS = (662, 877)


def calls(function, *args):
    """``(python, c)`` calls made while ``function(*args)`` runs."""
    counts = {"call": 0, "c_call": 0}

    def profile(_frame, event, _arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return counts["call"], counts["c_call"]


def test_a_matrix_round_trip_costs_the_same_calls_at_2_and_32_rows(monkeypatch):
    monkeypatch.setattr(clients, "COLUMNAR_MIN_READS", 1)
    config = DartConfig(slots_per_collector=SLOTS, num_collectors=1, seed=5)
    cluster = CollectorCluster(config)
    node = cluster.node(0)
    reader = OneSidedReader(
        cluster.attach_to(InlineFabric()), 0, node.nic, READER_QP, ResponseDemux(),
        node.region.rkey,
    )
    runs = [
        [node.region.base_address + slot * config.slot_bytes for slot in range(rows)]
        for rows in (2, 32)
    ]
    for addresses in runs:  # first sight of each shape plans it
        reader.read_run(addresses, 24)
    two, thirty_two = (calls(reader.read_run, addresses, 24) for addresses in runs)
    assert two == thirty_two
    assert node.nic.counters.reads_executed == 2 * (2 + 32)


def test_a_64_key_sweep_makes_no_more_calls_than_recorded():
    service, _direct = fleet_rig()
    service.serve(SWEEP, keys=KEYS, use_cache=False)  # plans every shape
    python, c = calls(service.serve, SWEEP, "default", KEYS, False)
    assert python <= SWEEP_CALLS[0] and c <= SWEEP_CALLS[1], (python, c)
