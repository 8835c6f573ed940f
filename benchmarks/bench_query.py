"""CI gate for the query front end (``make bench-query``).

Three promises the :mod:`repro.query` service makes, measured in one run
and recorded to ``benchmarks/BENCH_query.json``:

- **Scale**: a closed loop of >= 10k concurrent simulated users (asyncio
  tasks) on the packet clock completes with every in-quota query
  answered;
- **Cache**: serving a hit from the TTL result cache is >= 5x faster at
  p99 than the uncached shard fan-out for the same query;
- **Isolation**: an over-quota tenant is rejected at the token bucket
  (never reaching the fabric) without degrading the in-quota tenant's
  p99.
"""

import asyncio
import json
import pathlib
from time import perf_counter

from repro import obs
from repro.query import (
    LoadGenerator,
    QueryFleet,
    QueryService,
    UserScript,
    hot_keyset_scripts,
    quantile,
)

#: Where the query front-end gate records its measurements.
QUERY_ARTIFACT = pathlib.Path(__file__).parent / "BENCH_query.json"

#: Cached serving must beat the uncached fan-out by this factor at p99.
CACHE_SPEEDUP_FLOOR = 5.0

#: Concurrent simulated users the closed-loop run must sustain.
USERS_FLOOR = 10_000

#: The fan-out query both cache measurements serve.
SWEEP_QUERY = "select value from keys policy plurality"


def build_service(num_keys=48, **service_kwargs):
    """One populated inline-fabric fleet behind a query service."""
    fleet = QueryFleet()
    fleet.put_many(
        (f"flow-{index}", b"v%02d" % index) for index in range(num_keys)
    )
    fleet.count_many((f"flow-{index}", index + 1) for index in range(num_keys))
    service_kwargs.setdefault("tenant_rate", 1_000.0)
    service_kwargs.setdefault("tenant_burst", 1_000_000.0)
    return QueryService(fleet, **service_kwargs)


def measure_cache_paths(service, samples=300):
    """p99 of the cached vs uncached serving path for the same query."""
    uncached = [
        service.serve(SWEEP_QUERY, use_cache=False).elapsed_seconds
        for _ in range(samples)
    ]
    service.serve(SWEEP_QUERY)  # populate the entry
    cached = []
    for _ in range(samples):
        result = service.serve(SWEEP_QUERY)
        assert result.cached
        cached.append(result.elapsed_seconds)
    return quantile(cached, 0.99), quantile(uncached, 0.99)


def measure_cached_query(service, samples=300):
    """p99 of a hit through the async ``query``, timed around its await.

    The requests run in sequence in one event loop, so this is the door's
    own cost (recorded, not gated) next to ``serve``'s hit path.
    """

    async def hits():
        waits = []
        for _ in range(samples):
            started = perf_counter()
            result = await service.query(SWEEP_QUERY)
            waits.append(perf_counter() - started)
            assert result.cached
        return waits

    return quantile(asyncio.run(hits()), 0.99)


def run_closed_loop(service, users, hot_keys=16):
    """A >= ``users``-task closed loop over a hot keyset; returns report."""
    keys = [f"flow-{index}" for index in range(hot_keys)]
    generator = LoadGenerator(
        service,
        hot_keyset_scripts(keys, tenants=("alpha", "beta", "gamma")),
        users=users,
        requests_per_user=1,
        tick_stride=256,
    )
    return generator.run()


def run_quota_isolation(users=2_000):
    """Greedy + paying tenants side by side; returns per-tenant stats.

    The greedy tenant's bucket holds ~1% of its offered load; the paying
    tenant is effectively unmetered.  Both run concurrently in one
    closed loop, so any cross-tenant latency bleed would show in the
    paying tenant's histogram.
    """
    service = build_service()
    # Override quota for one tenant by pre-creating its bucket small.
    from repro.query.service import TokenBucket

    service._buckets["greedy"] = TokenBucket(
        rate=0.001, burst=max(users // 100, 1), clock=service.now()
    )
    hot = 'select value from keys where key == "flow-3"'
    scripts = [
        UserScript(text=hot, tenant="greedy"),
        UserScript(text=hot, tenant="paying"),
    ]
    generator = LoadGenerator(
        service, scripts, users=users, requests_per_user=1, tick_stride=256
    )
    report = generator.run()

    registry = obs.get_registry()
    stats = {}
    for tenant in ("greedy", "paying"):
        rejections = 0.0
        p99 = None
        for labels, metric in registry.samples("query_quota_rejections_total"):
            if labels.get("tenant") == tenant:
                rejections += metric.value
        for labels, metric in registry.samples("query_service_seconds"):
            if labels.get("tenant") == tenant and metric.count:
                p99 = metric.quantile(0.99)
        stats[tenant] = {"quota_rejections": rejections, "p99_seconds": p99}
    stats["report"] = report.to_dict()
    return stats


def query_gate_rows(users=USERS_FLOOR):
    """Run all three measurements under one fresh registry."""
    registry = obs.MetricsRegistry(enabled=True)
    previous = obs.set_registry(registry)
    try:
        service = build_service()
        cached_p99, uncached_p99 = measure_cache_paths(service)
        cached_query_p99 = measure_cached_query(service)
        load_report = run_closed_loop(service, users)

        isolation = run_quota_isolation()
        return {
            "users": load_report.users,
            "clock_ticks": service.fleet.clock,
            "cached_p99_seconds": cached_p99,
            "cached_query_p99_seconds": cached_query_p99,
            "uncached_p99_seconds": uncached_p99,
            "cache_speedup_p99": (
                uncached_p99 / cached_p99 if cached_p99 > 0 else float("inf")
            ),
            "load": load_report.to_dict(),
            "quota": isolation,
        }
    finally:
        obs.set_registry(previous)


def test_query_front_end_gate(run_once):
    """>=10k users sustained; cache >= 5x at p99; quotas isolate tenants."""
    results = run_once(query_gate_rows)

    # Scale: every in-quota query answered, none shed, cache doing work.
    load = results["load"]
    assert load["users"] >= USERS_FLOOR
    assert load["issued"] == load["users"]
    assert load["rejected_quota"] == 0
    assert load["rejected_admission"] == 0
    assert load["answered"] == load["issued"]
    assert load["cache_hits"] >= load["issued"] * 0.9
    assert results["clock_ticks"] > 0

    # Cache: hit path >= 5x faster than the uncached fan-out at p99.
    speedup = results["cache_speedup_p99"]
    assert speedup >= CACHE_SPEEDUP_FLOOR, (
        f"cached p99 {results['cached_p99_seconds']:.2e}s is only "
        f"{speedup:.1f}x faster than uncached "
        f"{results['uncached_p99_seconds']:.2e}s, need >= "
        f"{CACHE_SPEEDUP_FLOOR}x"
    )

    # Isolation: the greedy tenant was rejected at the bucket; the
    # paying tenant saw zero rejections and kept a sub-millisecond p99
    # (generous slack over the measured cached path).
    quota = results["quota"]
    assert quota["greedy"]["quota_rejections"] > 0
    assert quota["paying"]["quota_rejections"] == 0
    paying_p99 = quota["paying"]["p99_seconds"]
    assert paying_p99 is not None
    assert paying_p99 <= max(results["uncached_p99_seconds"] * 10, 0.005)

    print_rows = {
        key: value
        for key, value in results.items()
        if key not in ("load", "quota")
    }
    print(json.dumps({**print_rows, "load": results["load"]}, indent=2))
    QUERY_ARTIFACT.write_text(json.dumps(results, indent=2) + "\n")
