"""A key is folded once per key-taking entry point, however much is derived from it.

The fold (byte-encode the key, mix it word by word into a 64-bit lane) is
the expensive part of every hash; the collector role, the N slot indexes,
the checksum and every count-min cell are cheap mixes of the lane.  This
pins that no public operation pays for the fold twice, on the two rig
shapes ``perf/`` drives: a ``DartStore`` with its own counter bank and
query service, and a ``QueryFleet``.
"""

import sys

import pytest

from repro.collector.counters import CounterStore
from repro.collector.store import DartStore
from repro.core.addressing import DartAddressing
from repro.core.cas_store import CasDartStore
from repro.hashing import hash_family
from repro.primitives.clients import CounterQueryClient
from repro.primitives.sketch import SwitchSketch
from repro.query.fleet import QueryFleet

from .rigs import KEYS, POINT, SWEEP, fleet_rig, service_config, store_rig


@pytest.fixture
def folds(monkeypatch):
    """One entry per key folded while the fixture is live.

    The fold has three ways in -- ``fold_key``, ``fold_keys`` (a batch
    never reaches ``_fold_bytes``: it is mixed as a matrix) and
    ``HashFamily.hash_key`` -- and each is wrapped where a fold site
    imported it, not inside ``hash_family`` (a short ``fold_keys`` run
    loops over ``fold_key`` there and would count twice).
    """
    calls = []

    def counted(real, keys_of):
        def wrapper(*args):
            calls.extend(keys_of(args))
            return real(*args)

        return wrapper

    one_key = counted(hash_family.fold_key, lambda args: [args[0]])
    many_keys = counted(hash_family.fold_keys, lambda args: list(args[0]))
    sites = 0
    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and module is not hash_family:
            if getattr(module, "fold_key", None) is hash_family.fold_key:
                monkeypatch.setattr(module, "fold_key", one_key)
                sites += 1
            if getattr(module, "fold_keys", None) is hash_family.fold_keys:
                monkeypatch.setattr(module, "fold_keys", many_keys)
                sites += 1
    assert sites >= 5  # addressing, batch, translator (both), backend
    monkeypatch.setattr(
        hash_family.HashFamily,
        "hash_key",
        counted(hash_family.HashFamily.hash_key, lambda args: [args[1]]),
    )
    return calls


@pytest.mark.parametrize("rig", [store_rig, fleet_rig])
def test_served_lookups_fold_each_candidate_once(rig, folds, monkeypatch):
    """...and resolve them once: one ``resolve_folded`` pass per served sweep,
    one ``resolve_lane`` per key of a point lookup (a short run makes no array).
    """
    service, local = rig()
    passes = []
    resolve_folded, resolve_lane = DartAddressing.resolve_folded, DartAddressing.resolve_lane
    monkeypatch.setattr(
        DartAddressing,
        "resolve_folded",
        lambda self, lanes: passes.append(len(lanes)) or resolve_folded(self, lanes),
    )
    monkeypatch.setattr(
        DartAddressing,
        "resolve_lane",
        lambda self, lane: passes.append(1) or resolve_lane(self, lane),
    )
    del folds[:]
    assert len(service.serve(POINT, "t", [KEYS[7]], False).answer.rows) == 1
    assert len(folds) == 1 and passes == [1]
    del folds[:], passes[:]
    assert len(service.serve(SWEEP, "t", KEYS, False).answer.rows) == 64
    assert len(folds) == 64 and passes == [64]
    del folds[:]
    assert local.query(KEYS[7]).answered
    assert len(folds) == 1


@pytest.mark.parametrize("method", ["count_many", "sketch_many"])
def test_fleet_increments_fold_each_key_once(method, folds):
    fleet = QueryFleet(service_config())
    getattr(fleet, method)([(key, 1) for key in KEYS])
    assert len(folds) == 64
    source = "counters" if method == "count_many" else "sketch"
    del folds[:]
    assert fleet.direct_estimate(KEYS[0], source) == 1
    assert len(folds) == 1


def test_store_and_primitive_entry_points_fold_once(folds):
    def folded(operation, *args):
        del folds[:]
        result = operation(*args)
        return len(folds), result

    store = DartStore(service_config())
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
