"""Deterministic cost of the read and write legs: Python and C calls, not seconds.

Wall time on a shared host moves with its neighbours; the number of calls a
READ round trip, a served sweep or a ``put`` makes does not.  A matrix READ's
cost is its calls' fixed floor, not its rows (DESIGN.md, "Where a matrix
READ's round trip goes"), so two guards: a matrix round trip makes the same
calls at 2 rows as at 32, and a 64-key sweep over four shards makes no more
calls than this tree records.  The per-event write leg has its own: a warm
two-copy packet-level ``put`` makes no more calls than recorded, and the
metrics it and a ``put_many`` pay (the calls entering ``repro.obs``) are
exactly the recorded count.  Counted with ``sys.setprofile`` (stdlib only):
a ``call`` event per Python frame entered and a ``c_call`` per C function
called from Python.
"""

import os
import sys

import repro.primitives.clients as clients
from repro.collector.collector import CollectorCluster
from repro.collector.store import DartStore
from repro.core.addressing import DartAddressing
from repro.core.config import DartConfig
from repro.fabric import InlineFabric
from repro.primitives.clients import OneSidedReader
from repro.primitives.translator import ResponseDemux

from .rigs import KEYS, READER_QP, SLOTS, SRC, SWEEP, fleet_rig

#: Calls one served 64-key sweep over four shards makes, cache bypassed:
#: (Python, C).  Recorded on this tree; a change that adds calls to the read
#: leg raises it here, with its reason, or fails.
SWEEP_CALLS = (622, 849)
#: Calls one warm two-copy packet-level ``put`` makes, (Python, C): switch,
#: fabric, NIC and region, each copy landing on a free slot.
PUT_CALLS = (66, 70)
#: Calls entering ``repro.obs`` (counters, histograms, stage timers) per
#: ``put``, and per ``put_many`` of :data:`ROWS` rows: every per-frame
#: counter increment is one, so a change that derives or drops one lowers
#: these with its reason, and a change that adds one raises them.
PUT_OBS_CALLS = 21
PUT_MANY_OBS_CALLS = 52
ROWS = 64
OBS = str(SRC / "obs") + os.sep


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


def obs_calls(function, *args):
    """Python calls into ``repro.obs`` made while ``function(*args)`` runs."""
    entered = []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(OBS):
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return len(entered)


def put_rig():
    """The ``ingest_perframe`` deployment in small: four collectors, two
    copies, an inline fabric; warm, and a list of keys none has written."""
    config = DartConfig(slots_per_collector=1 << 12, num_collectors=4, redundancy=2, seed=5)
    store = DartStore(config, packet_level=True, fabric=InlineFabric())
    flows = [("10.0.0.%d" % (i % 250), "10.1.0.9", 4000 + i, 80, 6) for i in range(400)]
    for flow in flows[:8]:  # first sight of every role's decode
        store.put(flow, b"warm")
    addressing, width = DartAddressing(config), config.slot_bytes
    taken, fresh = set(), []
    for flow in flows[8:]:  # keys whose copies all land on free slots
        collector, _checksum, slots = addressing.resolve(flow)
        region = store.cluster[collector].region
        cells = {(collector, slot) for slot in slots}
        if len(cells) == len(slots) and not cells & taken and not any(
            any(region.read_offset(slot * width, width)) for slot in slots
        ):
            taken |= cells
            fresh.append(flow)
    return store, fresh


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


def test_a_warm_put_makes_no_more_calls_than_recorded():
    store, fresh = put_rig()
    counted = [calls(store.put, flow, b"value-%d" % n) for n, flow in enumerate(fresh[:16])]
    assert max(python for python, _c in counted) <= PUT_CALLS[0], counted
    assert max(c for _python, c in counted) <= PUT_CALLS[1], counted
    assert store.cluster[0].nic.counters.frames_dropped == 0


def test_a_put_and_a_put_many_pay_the_recorded_metrics():
    store, fresh = put_rig()
    assert {obs_calls(store.put, flow, b"v") for flow in fresh[:16]} == {PUT_OBS_CALLS}
    items = [(flow, b"v") for flow in fresh[16 : 16 + ROWS]]
    assert obs_calls(store.put_many, items) == PUT_MANY_OBS_CALLS
