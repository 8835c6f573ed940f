"""The query service: cache TTL/epoch semantics, quotas, admission, health."""

import asyncio

import pytest

from repro import obs
from repro.obs.health import PipelineHealth
from repro.query.fleet import QueryFleet
from repro.query.planner import QueryAnswer
from repro.query.service import (
    AdmissionRejected,
    QueryService,
    QuotaExceeded,
    ResultCache,
    TokenBucket,
)


@pytest.fixture
def fleet(registry):
    fleet = QueryFleet(num_standbys=1)
    fleet.put_many((f"flow-{i}", b"v%d" % i) for i in range(16))
    fleet.count_many((f"flow-{i}", i + 1) for i in range(16))
    return fleet


def tenant_counter(registry, family, tenant):
    """The live per-tenant counter value for one family (0 when absent)."""
    total = 0
    for labels, metric in registry.samples(family):
        if labels.get("tenant") == tenant:
            total += metric.value
    return total


class TestTokenBucket:
    def test_burst_then_starvation(self):
        bucket = TokenBucket(rate=1.0, burst=3.0, clock=0)
        assert [bucket.take(0) for _ in range(4)] == [True, True, True, False]

    def test_refills_on_clock_not_calls(self):
        bucket = TokenBucket(rate=0.5, burst=2.0, clock=0)
        assert bucket.take(0) and bucket.take(0)
        assert not bucket.take(0)
        assert not bucket.take(1)  # 0.5 tokens: still short
        assert bucket.take(3)  # 1.5 accrued by tick 3

    def test_clock_never_runs_backwards(self):
        bucket = TokenBucket(rate=1.0, burst=1.0, clock=10)
        assert bucket.take(10)
        bucket.refill(5)
        assert not bucket.take(5)
        assert bucket.take(11)


class TestResultCacheUnit:
    def answer(self):
        from repro.query.lang import parse_query

        return QueryAnswer(
            query=parse_query("select value from keys"),
            epoch=0, rows=[], value=None,
        )

    def test_ttl_expiry_on_logical_clock(self):
        cache = ResultCache(capacity=4, ttl_ticks=10)
        cache.put(("q",), self.answer(), clock=0, epoch=0)
        assert cache.get(("q",), clock=9, epoch=0) is not None
        assert cache.get(("q",), clock=10, epoch=0) is None
        assert len(cache) == 0  # expired entries are dropped on lookup

    def test_epoch_mismatch_invalidates(self):
        cache = ResultCache(capacity=4, ttl_ticks=100)
        cache.put(("q",), self.answer(), clock=0, epoch=3)
        assert cache.get(("q",), clock=1, epoch=3) is not None
        assert cache.get(("q",), clock=1, epoch=4) is None
        assert len(cache) == 0

    def test_lru_eviction_counts(self):
        cache = ResultCache(capacity=2, ttl_ticks=100)
        assert cache.put(("a",), self.answer(), 0, 0) == 0
        assert cache.put(("b",), self.answer(), 0, 0) == 0
        assert cache.get(("a",), 1, 0) is not None  # refresh "a"
        assert cache.put(("c",), self.answer(), 1, 0) == 1
        assert cache.get(("b",), 1, 0) is None  # "b" was the LRU victim
        assert cache.get(("a",), 1, 0) is not None

    def test_sweep_drops_expired_and_stale(self):
        cache = ResultCache(capacity=8, ttl_ticks=5)
        cache.put(("old",), self.answer(), clock=0, epoch=0)
        cache.put(("stale",), self.answer(), clock=8, epoch=0)
        cache.put(("live",), self.answer(), clock=8, epoch=1)
        assert cache.sweep(clock=9, epoch=1) == 2
        assert len(cache) == 1


class TestServiceCaching:
    QUERY = 'select value from keys where key == "flow-3"'

    def test_hit_and_miss_accounting_per_tenant(self, registry, fleet):
        service = QueryService(fleet)
        first = service.serve(self.QUERY, tenant="alpha")
        second = service.serve(self.QUERY, tenant="alpha")
        third = service.serve(self.QUERY, tenant="beta")
        assert not first.cached and second.cached and third.cached
        assert tenant_counter(registry, "query_cache_misses_total", "alpha") == 1
        assert tenant_counter(registry, "query_cache_hits_total", "alpha") == 1
        assert tenant_counter(registry, "query_cache_hits_total", "beta") == 1
        assert tenant_counter(registry, "query_cache_misses_total", "beta") == 0

    def test_cached_answer_is_value_identical(self, registry, fleet):
        service = QueryService(fleet)
        uncached = service.serve(self.QUERY)
        cached = service.serve(self.QUERY)
        assert cached.answer.rows == uncached.answer.rows

    def test_parse_memo_is_bounded_by_cache_capacity(self, registry, fleet):
        """Ten times capacity distinct texts leave at most capacity parsed,
        and an evicted text parses again to an equal query."""
        service = QueryService(fleet, cache_capacity=8)
        first = service.parse(self.QUERY)
        for index in range(80):
            service.parse(f'select value from keys where key == "k-{index}"')
        assert len(service._parsed) <= 8
        assert self.QUERY not in service._parsed
        assert service.parse(self.QUERY) == first
        assert service.parse(self.QUERY) is service.parse(self.QUERY)

    def test_ttl_expires_on_packet_clock(self, registry, fleet):
        service = QueryService(fleet, cache_ttl_ticks=8)
        service.serve(self.QUERY)
        fleet.settle(4)
        assert service.serve(self.QUERY).cached
        fleet.settle(8)
        assert not service.serve(self.QUERY).cached

    def test_epoch_bump_invalidates_cache(self, registry, fleet):
        fleet.enable_control(fail_after=2, tick_interval=5)
        fleet.settle(6)
        service = QueryService(fleet, cache_ttl_ticks=10_000)
        service.serve(self.QUERY)
        assert service.serve(self.QUERY).cached
        epoch_before = service.current_epoch
        fleet.kill_node(fleet.shard_map().node_for(3))
        fleet.settle(40)
        assert service.current_epoch > epoch_before
        refreshed = service.serve(self.QUERY)
        assert not refreshed.cached  # old-epoch entry was purged
        assert refreshed.epoch > epoch_before

    def test_concurrent_tenants_share_entries_not_counters(self, registry, fleet):
        service = QueryService(fleet, tenant_burst=1000)

        async def tenant_loop(tenant):
            for _request in range(5):
                await service.query(self.QUERY, tenant=tenant)

        async def run():
            await asyncio.gather(*(tenant_loop(f"t{i}") for i in range(4)))

        asyncio.run(run())
        hits = sum(
            tenant_counter(registry, "query_cache_hits_total", f"t{i}")
            for i in range(4)
        )
        misses = sum(
            tenant_counter(registry, "query_cache_misses_total", f"t{i}")
            for i in range(4)
        )
        assert misses == 1  # exactly one fan-out populated the entry
        assert hits == 19


class TestQuotasAndAdmission:
    QUERY = 'select value from keys where key == "flow-1"'

    def test_over_quota_tenant_rejected_with_metric(self, registry, fleet):
        service = QueryService(fleet, tenant_rate=1.0, tenant_burst=2.0)
        service.serve(self.QUERY, tenant="greedy")
        service.serve(self.QUERY, tenant="greedy")
        with pytest.raises(QuotaExceeded):
            service.serve(self.QUERY, tenant="greedy")
        assert (
            tenant_counter(registry, "query_quota_rejections_total", "greedy")
            == 1
        )

    def test_quota_is_per_tenant(self, registry, fleet):
        service = QueryService(fleet, tenant_rate=1.0, tenant_burst=1.0)
        service.serve(self.QUERY, tenant="greedy")
        with pytest.raises(QuotaExceeded):
            service.serve(self.QUERY, tenant="greedy")
        # A different tenant still has its full bucket.
        assert service.serve(self.QUERY, tenant="polite").answer.complete

    def test_bucket_refills_on_packet_clock(self, registry, fleet):
        service = QueryService(fleet, tenant_rate=0.5, tenant_burst=1.0)
        service.serve(self.QUERY, tenant="t")
        with pytest.raises(QuotaExceeded):
            service.serve(self.QUERY, tenant="t")
        fleet.settle(2)  # one token accrues
        assert service.serve(self.QUERY, tenant="t") is not None

    def test_admission_cap_sheds_load(self, registry, fleet):
        service = QueryService(fleet, max_pending=0)

        async def run():
            with pytest.raises(AdmissionRejected):
                await service.query(self.QUERY)

        asyncio.run(run())
        assert registry.total("query_admission_rejections_total") == 1


class TestFanoutHealthRegression:
    """Satellite: partial-shard failures must be visible in PipelineHealth."""

    def test_fanout_counters_flow_into_health(self, registry, fleet):
        service = QueryService(fleet)
        service.serve("select sum(est) from counters")
        health = PipelineHealth.from_registry(registry)
        assert health.fanout_shards == fleet.config.num_collectors
        assert health.fanout_shard_failures == 0
        assert health.shard_failure_rate == 0.0

    def test_partial_shard_failure_is_visible(self, registry, fleet):
        service = QueryService(fleet, cache_ttl_ticks=1)
        shards = fleet.config.num_collectors

        from repro.query.backend import ShardUnavailable

        original = fleet.backend.rows_for

        def flaky_rows_for(source, shard, *rest):
            if shard.role == 0:
                raise ShardUnavailable(shard.role, shard.node_id)
            return original(source, shard, *rest)

        fleet.backend.rows_for = flaky_rows_for
        result = service.serve("select sum(est) from counters")
        assert not result.answer.complete

        health = PipelineHealth.from_registry(registry)
        assert health.fanout_shards == shards
        assert health.fanout_shard_failures == 1
        assert health.shard_failure_rate == pytest.approx(1 / shards)
        # The dashboard line renders the failure, not just the counters.
        dashboard = obs.render_dashboard(registry)
        assert "query fan-out shards" in dashboard
        assert "failed 1" in dashboard

    def test_incomplete_answers_are_never_cached(self, registry, fleet):
        service = QueryService(fleet)

        from repro.query.backend import ShardUnavailable

        original = fleet.backend.rows_for

        def flaky_rows_for(source, shard, *rest):
            if shard.role == 0:
                raise ShardUnavailable(shard.role, shard.node_id)
            return original(source, shard, *rest)

        fleet.backend.rows_for = flaky_rows_for
        assert not service.serve("select sum(est) from counters").answer.complete
        fleet.backend.rows_for = original
        # The healed fleet must not serve the partial answer from cache.
        healed = service.serve("select sum(est) from counters")
        assert not healed.cached
        assert healed.answer.complete

    def test_keys_fanout_threads_per_policy_success(self, registry, fleet):
        service = QueryService(fleet)
        service.serve("select value from keys", tenant="ops")
        health = PipelineHealth.from_registry(registry)
        by_policy = {q.policy: q for q in health.queries}
        assert "PLURALITY" in by_policy
        assert by_policy["PLURALITY"].total == len(fleet.known_keys)
        assert by_policy["PLURALITY"].answered == len(fleet.known_keys)
