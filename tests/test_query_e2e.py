"""End-to-end identity: the query front end vs direct reads, per fabric.

The front end is only trustworthy if its answers are *identical* to what
a direct one-sided client sees -- same bytes from the keys plane, same
count-min estimates, same ring records -- over every fabric flavour the
fleet runs on, and across a mid-run failover that moves a shard to a
standby under the service's feet.
"""

import pytest

from repro.core.client import DartQueryClient
from repro.core.policies import ReturnPolicy
from repro.query.fleet import QueryFleet, fabric_flavour
from repro.query.service import QueryService

FLAVOURS = ("inline", "buffered", "impaired")

#: Fabrics whose probe round trips complete without an external flush --
#: the flavours the failure-detector-driven failover leg can run on.
#: (BufferedFabric defers probe frames past the detector's poll, so a
#: controller on it would declare every host dead; its identity legs run
#: without a controller.)
CONTROLLED_FLAVOURS = ("inline", "impaired")


def build_fleet(flavour, registry, standbys=0):
    """One populated fleet of the requested fabric flavour."""
    fleet = QueryFleet(
        fabric_factory=fabric_flavour(flavour, loss=0.03, seed=7),
        num_standbys=standbys,
    )
    fleet.put_many((f"flow-{i}", b"value-%02d" % i) for i in range(40))
    fleet.count_many((f"flow-{i}", 3 * i + 1) for i in range(40))
    fleet.sketch_many((f"flow-{i}", i + 2) for i in range(40))
    for index in range(12):
        fleet.append(f"flow-{index}", b"rec-%02d" % index)
    return fleet


def assert_keys_identical(fleet, service, policy=ReturnPolicy.PLURALITY):
    """Service key rows must be byte-identical to direct client reads."""
    direct = DartQueryClient(
        fleet.config, reader=fleet.cluster.read_slot, policy=policy
    )
    result = service.serve(f"select value from keys policy {policy.value}")
    by_key = {row["key"]: row for row in result.answer.rows}
    assert set(by_key) == {f"flow-{i}" for i in range(40)}
    for key in fleet.known_keys:
        expected = direct.query(key)
        row = by_key[key]
        assert row["value"] == expected.value  # byte identity
        assert row["answered"] == expected.answered
    return result


def assert_estimates_identical(fleet, service, source):
    """Service estimates must equal the collector-local ground truth."""
    result = service.serve(f"select est from {source}")
    by_key = {row["key"]: row["est"] for row in result.answer.rows}
    for key in fleet.known_keys:
        assert by_key[key] == fleet.direct_estimate(key, source=source)


def assert_ring_identical(fleet, service):
    """Service ring rows must equal each shard's recovered snapshot."""
    result = service.serve("select record from ring")
    served = sorted(
        (row["index"], row["record"]) for row in result.answer.rows
    )
    expected = sorted(
        pair
        for store in fleet.ring_stores.values()
        for pair in store.recover().records
    )
    assert served == expected


class TestIdentityPerFabric:
    @pytest.mark.parametrize("flavour", FLAVOURS)
    def test_keys_byte_identical_to_direct_client(self, registry, flavour):
        fleet = build_fleet(flavour, registry)
        service = QueryService(fleet, cache_ttl_ticks=1)
        result = assert_keys_identical(fleet, service)
        assert result.answer.complete

    @pytest.mark.parametrize("flavour", FLAVOURS)
    def test_every_policy_resolves_identically(self, registry, flavour):
        fleet = build_fleet(flavour, registry)
        service = QueryService(fleet, cache_ttl_ticks=1)
        for policy in ReturnPolicy:
            assert_keys_identical(fleet, service, policy=policy)

    @pytest.mark.parametrize("flavour", FLAVOURS)
    def test_counter_and_sketch_estimates_identical(self, registry, flavour):
        fleet = build_fleet(flavour, registry)
        service = QueryService(fleet, cache_ttl_ticks=1)
        assert_estimates_identical(fleet, service, "counters")
        assert_estimates_identical(fleet, service, "sketch")

    @pytest.mark.parametrize("flavour", FLAVOURS)
    def test_ring_window_identical(self, registry, flavour):
        fleet = build_fleet(flavour, registry)
        service = QueryService(fleet, cache_ttl_ticks=1)
        assert_ring_identical(fleet, service)

    @pytest.mark.parametrize("flavour", FLAVOURS)
    def test_aggregates_match_ground_truth(self, registry, flavour):
        fleet = build_fleet(flavour, registry)
        service = QueryService(fleet, cache_ttl_ticks=1)
        truth = sum(
            fleet.direct_estimate(key, source="counters")
            for key in fleet.known_keys
        )
        assert service.serve("select sum(est) from counters").answer.value == truth
        assert (
            service.serve("select count(*) from ring").answer.value
            == sum(len(s.recover()) for s in fleet.ring_stores.values())
        )


class TestMidRunFailover:
    @pytest.mark.parametrize("flavour", CONTROLLED_FLAVOURS)
    def test_failover_bumps_epoch_and_preserves_identity(
        self, registry, flavour
    ):
        fleet = build_fleet(flavour, registry, standbys=1)
        fleet.enable_control(fail_after=4, tick_interval=5)
        fleet.settle(10)
        service = QueryService(fleet, cache_ttl_ticks=100_000)

        before = assert_keys_identical(fleet, service)
        assert before.answer.complete
        # The same query again is a cache hit at the stable epoch.
        assert service.serve(
            "select value from keys policy plurality"
        ).cached
        epoch_before = service.current_epoch

        # Crash the node serving role 0 mid-run; the controller detects
        # the failure on the packet clock and promotes the standby.
        victim = fleet.shard_map().node_for(0)
        fleet.kill_node(victim)
        fleet.settle(60)
        assert service.current_epoch > epoch_before
        assert fleet.shard_map().node_for(0) != victim

        # The epoch bump invalidated the cache: the next serve re-plans
        # against the new shard map and fans out to the standby.
        after = service.serve("select value from keys policy plurality")
        assert not after.cached
        assert after.epoch > epoch_before
        assert after.answer.complete

        # And the re-fanned-out answer is still byte-identical to a
        # direct client read over the *new* topology.
        assert_keys_identical(fleet, service)

    def test_reader_rebinds_to_promoted_standby(self, registry):
        fleet = build_fleet("inline", registry, standbys=1)
        fleet.enable_control(fail_after=2, tick_interval=5)
        fleet.settle(6)
        service = QueryService(fleet, cache_ttl_ticks=1)
        service.serve("select value from keys")
        victim = fleet.shard_map().node_for(2)
        fleet.kill_node(victim)
        fleet.settle(40)
        promoted = fleet.shard_map().node_for(2)
        assert promoted != victim
        # The backend must have dropped the reader bound to the dead
        # node; the fresh serve reads role 2 from the promoted host.
        result = service.serve("select value from keys")
        assert result.answer.complete
        assert (2, victim) not in fleet.backend._keys_readers
        assert (2, promoted) in fleet.backend._keys_readers
