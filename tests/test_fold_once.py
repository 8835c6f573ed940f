"""A key is folded once per key-taking entry point, however much is derived from it.

The fold (byte-encode the key, mix it word by word into a 64-bit lane) is
the expensive part of every hash; the collector role, the N slot indexes,
the checksum and every count-min cell are cheap mixes of the lane.  This
pins that no public operation pays for the fold twice, on the two rig
shapes ``perf/`` drives: a ``DartStore`` with its own counter bank and
query service, and a ``QueryFleet``.
"""

import pytest

from repro.collector.counters import CounterStore
from repro.collector.store import DartStore
from repro.control.shards import shard_map_of
from repro.core.cas_store import CasDartStore
from repro.core.client import DartQueryClient
from repro.core.config import DartConfig
from repro.hashing import hash_family
from repro.primitives.clients import CounterQueryClient
from repro.primitives.sketch import SwitchSketch
from repro.query.backend import FanoutBackend
from repro.query.fleet import QueryFleet
from repro.query.service import QueryService

KEYS = [f"10.0.{i}.1:{4000 + i}>10.9.{i}.2:443/6" for i in range(64)]
POINT = 'select value from keys where key == "%s"' % KEYS[7]
SWEEP = "select value from keys"


def small_config():
    return DartConfig(slots_per_collector=1 << 10, num_collectors=4, redundancy=2)


def store_rig():
    config = small_config()
    store = DartStore(config, packet_level=True)
    store.put_many([(key, b"v") for key in KEYS])
    shard_map = shard_map_of(store.cluster)
    service = QueryService(
        backend=FanoutBackend(config, store.cluster, store.fabric),
        shard_map_provider=lambda: shard_map,
    )
    return service, DartQueryClient(config, reader=store.cluster.read_slot)


def fleet_rig():
    fleet = QueryFleet(small_config())
    fleet.put_many([(key, b"v") for key in KEYS])
    return QueryService(fleet), DartQueryClient(
        fleet.config, reader=fleet.cluster.read_slot
    )


@pytest.fixture
def folds(monkeypatch):
    """Every ``_fold_bytes`` call made while the fixture is live."""
    calls = []
    real_fold = hash_family._fold_bytes
    monkeypatch.setattr(
        hash_family, "_fold_bytes", lambda data: calls.append(data) or real_fold(data)
    )
    return calls


@pytest.mark.parametrize("rig", [store_rig, fleet_rig])
def test_served_lookups_fold_each_candidate_once(rig, folds):
    service, local = rig()
    del folds[:]
    assert len(service.serve(POINT, "t", [KEYS[7]], False).answer.rows) == 1
    assert len(folds) == 1
    del folds[:]
    assert len(service.serve(SWEEP, "t", KEYS, False).answer.rows) == 64
    assert len(folds) == 64
    del folds[:]
    assert local.query(KEYS[7]).answered
    assert len(folds) == 1


@pytest.mark.parametrize("method", ["count_many", "sketch_many"])
def test_fleet_increments_fold_each_key_once(method, folds):
    fleet = QueryFleet(small_config())
    getattr(fleet, method)([(key, 1) for key in KEYS])
    assert len(folds) == 64
    source = "counters" if method == "count_many" else "sketch"
    assert fleet.direct_estimate(KEYS[0], source) == 1


def test_store_and_primitive_entry_points_fold_once(folds):
    def folded(operation, *args):
        del folds[:]
        result = operation(*args)
        return len(folds), result

    store = DartStore(small_config())
    assert folded(store.put, KEYS[0], b"v") == (1, 2)
    cas = CasDartStore(num_slots=256)
    assert folded(cas.put, KEYS[0], 9) == (1, None)
    assert folded(cas.get, KEYS[0]) == (1, 9)
    bank = CounterStore(cells_per_row=64, rows=3)
    assert folded(bank.add, KEYS[0], 5) == (1, None)
    assert folded(bank.add_many, [(key, 1) for key in KEYS]) == (64, 192)
    assert folded(bank.estimate, KEYS[0]) == (1, 6)
    assert folded(CounterQueryClient(bank).estimate, KEYS[0]) == (1, 6)
    sketch = SwitchSketch(cells_per_row=64, rows=3)
    assert folded(sketch.update, KEYS[0], 2) == (1, None)
    assert folded(sketch.estimate, KEYS[0]) == (1, 2)
