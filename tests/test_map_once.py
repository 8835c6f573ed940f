"""Per-epoch state is computed once per epoch, not once per served query.

A served lookup should cost its READs: the shard map is frozen once per
(epoch, role map) and kept on the cluster, and the result cache's identity
is computed only where the cache is read.  Pinned on the two rig shapes
``perf/`` drives (see ``tests/test_fold_once.py``).
"""

import pytest

from repro.collector.collector import CollectorCluster
from repro.control import shards
from repro.control.shards import shard_map_of
from repro.query.fleet import QueryFleet
from repro.query.service import QueryService

from .rigs import KEYS, POINT, SWEEP, fleet_rig, service_config, store_rig


@pytest.fixture
def assignments(monkeypatch):
    """Every ``ShardAssignment`` built while the fixture is live."""
    built = []
    real = shards.ShardAssignment

    def counted(*args, **kwargs):
        built.append(args or kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(shards, "ShardAssignment", counted)
    return built


def served(service):
    """A point lookup, a sweep, a cache fill and a cache hit."""
    assert len(service.serve(POINT, "t", [KEYS[7]], False).answer.rows) == 1
    assert len(service.serve(SWEEP, "t", KEYS, False).answer.rows) == 64
    service.serve(POINT, "t", [KEYS[3]], True)
    assert service.serve(POINT, "t", [KEYS[3]], True).cached


@pytest.mark.parametrize("rig", [store_rig, fleet_rig])
def test_warm_lookups_build_no_shard_assignment(rig, assignments):
    service, _local = rig()
    served(service)  # warm-up
    del assignments[:]
    served(service)
    service.tick()
    assert service.current_epoch == 0
    assert assignments == []


@pytest.mark.parametrize("rig", [store_rig, fleet_rig])
def test_uncached_serve_never_evaluates_the_cache_identity(rig, monkeypatch):
    service, _local = rig()

    def refuse(*_args):
        raise AssertionError("cache identity evaluated")

    monkeypatch.setattr(service, "_cache_key", refuse)
    assert len(service.serve(POINT, "t", [KEYS[7]], False).answer.rows) == 1
    assert len(service.serve(SWEEP, "t", KEYS, False).answer.rows) == 64
    with pytest.raises(AssertionError, match="cache identity"):
        service.serve(POINT, "t", [KEYS[7]], True)


def test_promote_and_epoch_bump_each_freeze_a_new_map(assignments):
    cluster = CollectorCluster(service_config(), num_standbys=1)
    first = shard_map_of(cluster)
    assert len(assignments) == 4
    assert shard_map_of(cluster) is first

    cluster.node(0).fail()  # liveness is not part of the map
    assert shard_map_of(cluster) is first

    cluster.promote(0, 4)
    promoted = shard_map_of(cluster)
    assert promoted is not first and promoted.node_for(0) == 4
    assert promoted.assignments[1:] == first.assignments[1:]
    assert shard_map_of(cluster) is promoted

    bumped = shard_map_of(cluster, epoch=1)
    assert bumped is not promoted and bumped.epoch == 1
    assert bumped.assignments == promoted.assignments
    assert shard_map_of(cluster, epoch=1) is bumped
    assert len(assignments) == 12


def test_fleet_and_controller_maps_follow_failover():
    """The fleet's map, then the controller's, moves only with the epoch or
    a promotion; a crash alone leaves the served map in place until the
    controller fails the role over."""
    fleet = QueryFleet(service_config(), num_standbys=1)
    fleet.put_many([(key, b"v") for key in KEYS])
    service = QueryService(fleet)
    first = fleet.shard_map()
    assert fleet.shard_map() is first

    controller = fleet.enable_control(fail_after=2, tick_interval=5)
    fleet.settle(10)
    assert controller.events == []
    assert fleet.shard_map() is first  # same epoch, same role map

    fleet.kill_node(1)
    assert fleet.shard_map() is first
    fleet.settle(40)
    (event,) = controller.events
    moved = fleet.shard_map()
    assert moved is not first
    assert moved.epoch == event.epoch == 1
    assert moved.node_for(event.role) == event.target_node_id
    assert service.current_epoch == 1
    assert fleet.shard_map() is moved
