"""The planner: shard binding, push-down, partial-aggregate merging."""

import pytest

from repro import obs
from repro.query.backend import ShardUnavailable
from repro.query.fleet import QueryFleet
from repro.query.lang import Aggregate, parse_query
from repro.query.planner import PartialAggregate, plan_query


@pytest.fixture
def registry():
    registry = obs.MetricsRegistry(enabled=True)
    previous = obs.set_registry(registry)
    yield registry
    obs.set_registry(previous)


@pytest.fixture
def fleet(registry):
    fleet = QueryFleet()
    fleet.put_many((f"flow-{i}", b"v%d" % i) for i in range(24))
    fleet.count_many((f"flow-{i}", i + 1) for i in range(24))
    return fleet


class TestPartialAggregate:
    def test_merge_is_equivalent_to_single_pass(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        whole = PartialAggregate()
        for value in values:
            whole.observe(value)
        left, right = PartialAggregate(), PartialAggregate()
        for value in values[:3]:
            left.observe(value)
        for value in values[3:]:
            right.observe(value)
        left.merge(right)
        for aggregate in (
            Aggregate.SUM,
            Aggregate.COUNT,
            Aggregate.AVG,
            Aggregate.MIN,
            Aggregate.MAX,
        ):
            assert left.final(aggregate) == whole.final(aggregate)

    def test_empty_window_finals(self):
        empty = PartialAggregate()
        assert empty.final(Aggregate.COUNT) == 0.0
        assert empty.final(Aggregate.SUM) is None
        assert empty.final(Aggregate.AVG) is None

    def test_merge_with_empty_partial_is_identity(self):
        partial = PartialAggregate()
        partial.observe(7.0)
        partial.merge(PartialAggregate())
        assert partial.final(Aggregate.MIN) == 7.0
        assert partial.final(Aggregate.MAX) == 7.0


class TestPlanBinding:
    def test_candidates_grouped_by_owning_shard(self, fleet):
        query = parse_query("select est from counters")
        plan = plan_query(
            query, fleet.shard_map(), fleet.backend, keys=fleet.known_keys
        )
        assert plan.epoch == 0
        planned = {key for shard in plan.shards for key in shard.keys}
        assert planned == set(fleet.known_keys)
        for shard in plan.shards:
            for key in shard.keys:
                assert fleet.backend.addressing.collector_of(key) == shard.role

    def test_key_pushdown_prunes_before_fanout(self, fleet):
        query = parse_query('select est from counters where key == "flow-3"')
        plan = plan_query(
            query, fleet.shard_map(), fleet.backend, keys=fleet.known_keys
        )
        assert plan.pruned_keys == len(fleet.known_keys) - 1
        assert len(plan.shards) == 1
        assert plan.shards[0].keys == ("flow-3",)

    def test_fully_pruned_shards_are_dropped(self, fleet):
        query = parse_query('select est from counters where key == "no-such"')
        plan = plan_query(
            query, fleet.shard_map(), fleet.backend, keys=fleet.known_keys
        )
        assert plan.shards == []

    def test_ring_always_fans_to_every_shard(self, fleet):
        query = parse_query("select count(*) from ring")
        plan = plan_query(query, fleet.shard_map(), fleet.backend, keys=None)
        assert len(plan.shards) == fleet.config.num_collectors

    def test_explain_mentions_binding(self, fleet):
        query = parse_query('select est from counters where key == "flow-3"')
        plan = plan_query(
            query, fleet.shard_map(), fleet.backend, keys=fleet.known_keys
        )
        rendering = plan.explain()
        assert "epoch" in rendering
        assert "pruned" in rendering
        assert "1 shard(s)" in rendering


class TestExecutionAndMerge:
    def test_aggregate_matches_ground_truth(self, fleet):
        query = parse_query("select sum(est) from counters")
        plan = plan_query(
            query, fleet.shard_map(), fleet.backend, keys=fleet.known_keys
        )
        outcomes = [
            plan.execute_shard(fleet.backend, shard) for shard in plan.shards
        ]
        answer = plan.merge(outcomes)
        assert answer.value == sum(i + 1 for i in range(24))
        assert answer.complete

    def test_row_predicates_filter_per_shard(self, fleet):
        query = parse_query("select est from counters where est > 20")
        plan = plan_query(
            query, fleet.shard_map(), fleet.backend, keys=fleet.known_keys
        )
        outcomes = [
            plan.execute_shard(fleet.backend, shard) for shard in plan.shards
        ]
        answer = plan.merge(outcomes)
        assert sorted(row["est"] for row in answer.rows) == [21, 22, 23, 24]

    def test_topk_merges_across_shards(self, fleet):
        query = parse_query("select est from counters top 3 by est")
        plan = plan_query(
            query, fleet.shard_map(), fleet.backend, keys=fleet.known_keys
        )
        outcomes = [
            plan.execute_shard(fleet.backend, shard) for shard in plan.shards
        ]
        answer = plan.merge(outcomes)
        assert [row["est"] for row in answer.rows] == [24, 23, 22]
        assert answer.projected() == [24, 23, 22]

    def test_unreachable_shard_becomes_partial_failure(self, fleet):
        query = parse_query("select sum(est) from counters")
        plan = plan_query(
            query, fleet.shard_map(), fleet.backend, keys=fleet.known_keys
        )
        assert len(plan.shards) > 1

        def broken_rows_for(source, shard, *rest, _orig=fleet.backend.rows_for):
            if shard.role == plan.shards[0].role:
                raise ShardUnavailable(shard.role, shard.node_id)
            return _orig(source, shard, *rest)

        fleet.backend.rows_for = broken_rows_for
        outcomes = [
            plan.execute_shard(fleet.backend, shard) for shard in plan.shards
        ]
        answer = plan.merge(outcomes)
        assert not answer.complete
        assert answer.shards_failed == 1
        missing = sum(
            i + 1
            for i in range(24)
            if fleet.backend.addressing.collector_of(f"flow-{i}")
            == plan.shards[0].role
        )
        assert answer.value == sum(i + 1 for i in range(24)) - missing
