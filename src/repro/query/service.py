"""The async, multi-tenant query front end over the collector fleet.

Nothing in DART stands between "millions of users" and the one-sided
RDMA clients -- reading data back is a library call per key.  This
module is that missing front end:

- **Admission control**: a request that will fan out passes a bounded
  concurrency gate (semaphore) plus a hard pending-queue cap; load beyond
  the cap is rejected immediately (``query_admission_rejections_total``)
  instead of queueing without bound.  A live cache hit is answered at the
  door: it spends its quota token, takes no slot and is never shed.
- **Per-tenant token-bucket quotas**: each tenant's bucket refills on the
  *logical packet clock*, so quota behaviour is deterministic in tests
  and simulations; over-quota requests fail fast with
  :class:`QuotaExceeded` (``query_quota_rejections_total{tenant=...}``)
  and never touch the fabric -- an abusive tenant cannot degrade
  in-quota tenants' latency.
- **TTL result cache keyed on (query, candidates, epoch)**: a failover
  bumps the shard-map epoch, so every cached answer bound to the old
  table version misses (and is purged) on its next lookup --
  reconfiguration invalidates correctly by construction.
- **Observability**: per-tenant latency histograms
  (``query_service_seconds{tenant=...}``), cache hit/miss/eviction
  counters, quota/admission rejection counters, per-policy
  ``queries_total`` / ``queries_answered`` (the same families
  :class:`~repro.obs.health.PipelineHealth` reconciles, so the fan-out
  path shows up in the health dashboard like any other query plane) and
  fan-out shard counters (``query_fanout_shards_total`` /
  ``query_fanout_shard_failures_total``) that make partial-shard
  failures visible.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.core.policies import ReturnPolicy
from repro.hashing.hash_family import Key
from repro.obs.metrics import LATENCY_BUCKETS
from repro.query.backend import FanoutBackend, key_text
from repro.query.lang import Query, Source, parse_query
from repro.query.planner import QueryAnswer, plan_query


class QuotaExceeded(RuntimeError):
    """A tenant's token bucket is empty; the request was rejected."""

    def __init__(self, tenant: str) -> None:
        super().__init__(f"tenant {tenant!r} is over quota")
        self.tenant = tenant


class AdmissionRejected(RuntimeError):
    """The service's pending queue is full; the request was shed."""

    def __init__(self, pending: int) -> None:
        super().__init__(f"admission queue full ({pending} pending)")
        self.pending = pending


class TokenBucket:
    """A token bucket refilled on the logical clock (deterministic).

    ``rate`` tokens accrue per clock tick up to ``burst``; each admitted
    query spends one token.  Buckets refill lazily at check time, so no
    background task is needed.
    """

    def __init__(self, rate: float, burst: float, clock: int = 0) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self._last_clock = clock

    def refill(self, clock: int) -> None:
        """Accrue tokens for the ticks elapsed since the last refill."""
        elapsed = clock - self._last_clock
        if elapsed > 0:
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self._last_clock = max(self._last_clock, clock)

    def take(self, clock: int) -> bool:
        """Spend one token if available; False means over quota."""
        self.refill(clock)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass
class CacheEntry:
    """One cached answer, bound to a TTL deadline and a shard-map epoch."""

    answer: QueryAnswer
    expires_at: int
    epoch: int


class ResultCache:
    """A TTL + LRU result cache keyed on (query, candidates, epoch).

    Entries expire on the logical clock (``ttl_ticks``) and are
    invalidated by epoch mismatch -- a reconfigured fleet serves a new
    table version, so answers computed against the old shard map are
    purged the moment they are looked up.  Capacity is enforced LRU.
    """

    def __init__(self, capacity: int = 1024, ttl_ticks: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if ttl_ticks < 1:
            raise ValueError(f"ttl_ticks must be >= 1, got {ttl_ticks}")
        self.capacity = capacity
        self.ttl_ticks = ttl_ticks
        self._entries: "OrderedDict[Tuple, CacheEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def live(self, key: Tuple, clock: int, epoch: int) -> bool:
        """Whether :meth:`get` would answer ``key`` (reads, never evicts)."""
        entry = self._entries.get(key)
        return entry is not None and entry.epoch == epoch and clock < entry.expires_at

    def get(self, key: Tuple, clock: int, epoch: int) -> Optional[QueryAnswer]:
        """The live answer for ``key``, or None (expired/stale evicted)."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry.epoch != epoch or clock >= entry.expires_at:
            del self._entries[key]
            return None
        self._entries.move_to_end(key)
        return entry.answer

    def put(self, key: Tuple, answer: QueryAnswer, clock: int, epoch: int) -> int:
        """Store one answer; returns the number of LRU evictions it forced."""
        evicted = 0
        if key in self._entries:
            del self._entries[key]
        while len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            evicted += 1
        self._entries[key] = CacheEntry(
            answer=answer, expires_at=clock + self.ttl_ticks, epoch=epoch
        )
        return evicted

    def sweep(self, clock: int, epoch: int) -> int:
        """Drop every expired or stale-epoch entry; returns drops."""
        stale = [
            key
            for key, entry in self._entries.items()
            if entry.epoch != epoch or clock >= entry.expires_at
        ]
        for key in stale:
            del self._entries[key]
        return len(stale)


@dataclass
class ServiceResult:
    """What one admitted query returns to its tenant."""

    answer: QueryAnswer
    tenant: str
    cached: bool
    epoch: int
    elapsed_seconds: float


class QueryService:
    """The multi-tenant query-serving front end.

    Parameters
    ----------
    fleet:
        A :class:`~repro.query.fleet.QueryFleet` supplying the backend,
        shard map, candidate keys and logical clock.  (Pass ``backend``
        / ``shard_map_provider`` / ``candidates`` explicitly to serve a
        custom deployment instead.)
    policy:
        Default return policy for ``keys`` queries without a ``policy``
        clause.
    cache_capacity / cache_ttl_ticks:
        Result-cache geometry (logical-clock TTL).
    tenant_rate / tenant_burst:
        Token-bucket quota per tenant: ``rate`` tokens per clock tick,
        ``burst`` bucket depth.
    max_concurrency:
        Queries allowed to execute simultaneously (the admission gate).
    max_pending:
        Queries allowed to *wait* at the gate; beyond this, requests are
        shed with :class:`AdmissionRejected`.
    """

    def __init__(
        self,
        fleet=None,
        *,
        backend: Optional[FanoutBackend] = None,
        shard_map_provider: Optional[Callable[[], object]] = None,
        candidates: Optional[Callable[[], List[Key]]] = None,
        policy: ReturnPolicy = ReturnPolicy.PLURALITY,
        cache_capacity: int = 1024,
        cache_ttl_ticks: int = 64,
        tenant_rate: float = 4.0,
        tenant_burst: float = 64.0,
        max_concurrency: int = 64,
        max_pending: int = 1 << 16,
    ) -> None:
        if fleet is None and (backend is None or shard_map_provider is None):
            raise ValueError(
                "pass a QueryFleet, or both backend= and shard_map_provider="
            )
        self.fleet = fleet
        self.backend = backend if backend is not None else fleet.backend
        self._shard_map = (
            shard_map_provider
            if shard_map_provider is not None
            else fleet.shard_map
        )
        self._candidates = (
            candidates
            if candidates is not None
            else (lambda: fleet.known_keys) if fleet is not None else (lambda: [])
        )
        self.policy = policy
        self.cache = ResultCache(
            capacity=cache_capacity, ttl_ticks=cache_ttl_ticks
        )
        self.tenant_rate = tenant_rate
        self.tenant_burst = tenant_burst
        self.max_concurrency = max_concurrency
        self.max_pending = max_pending
        self._buckets: Dict[str, TokenBucket] = {}
        #: Parse memo, capped at the result cache's capacity (oldest text
        #: out first): one entry per distinct text forever is a leak.
        self._parsed: "OrderedDict[str, Query]" = OrderedDict()
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._pending = 0
        #: Internal clock used when no fleet supplies one.
        self._clock = 0

        registry = obs.get_registry()
        self._registry = registry
        self._labels = registry.instance_labels("QueryService")
        self.c_requests = registry.counter(
            "query_requests_total", labels=self._labels,
            help="queries admitted to the front end",
        )
        self.c_cache_evictions = registry.counter(
            "query_cache_evictions_total", labels=self._labels,
            help="result-cache entries evicted (LRU or staleness sweep)",
        )
        self.g_cache_entries = registry.gauge(
            "query_cache_entries", labels=self._labels,
            help="live result-cache entries",
        )
        self.c_admission_rejections = registry.counter(
            "query_admission_rejections_total", labels=self._labels,
            help="queries shed because the pending queue was full",
        )
        self.c_fanout_shards = registry.counter(
            "query_fanout_shards_total", labels=self._labels,
            help="per-shard sub-queries issued by the fan-out path",
        )
        self.c_fanout_failures = registry.counter(
            "query_fanout_shard_failures_total", labels=self._labels,
            help="per-shard sub-queries that failed (unreachable shard)",
        )
        self._tenant_counters: Dict[Tuple[str, str], object] = {}
        self._tenant_histograms: Dict[str, object] = {}
        self._policy_counters: Dict[str, Tuple[object, object]] = {}

    def __repr__(self) -> str:
        return (
            f"QueryService(requests={int(self.c_requests.value)}, "
            f"cache_entries={len(self.cache)})"
        )

    # ------------------------------------------------------------------
    # Clock and metric plumbing
    # ------------------------------------------------------------------

    def now(self) -> int:
        """The logical clock quotas and TTLs run on (fleet packet clock)."""
        if self.fleet is not None:
            return self.fleet.clock
        return self._clock

    def tick(self, amount: int = 1) -> None:
        """Advance the logical clock (refills quotas, expires cache).

        With a fleet attached this advances the *fleet's* packet clock
        (so the controller reconciles on the same timeline); stand-alone
        services keep an internal counter.
        """
        if self.fleet is not None:
            self.fleet.settle(amount)
        else:
            self._clock += amount
        swept = self.cache.sweep(self.now(), self.current_epoch)
        if swept:
            self.c_cache_evictions.inc(swept)
        self.g_cache_entries.set(float(len(self.cache)))

    @property
    def current_epoch(self) -> int:
        """The epoch of the current shard map."""
        return self._shard_map().epoch

    def _tenant_counter(self, family: str, tenant: str):
        counter = self._tenant_counters.get((family, tenant))
        if counter is None:
            counter = self._registry.counter(
                family, labels=self._labels + (("tenant", tenant),)
            )
            self._tenant_counters[(family, tenant)] = counter
        return counter

    def _tenant_histogram(self, tenant: str):
        histogram = self._tenant_histograms.get(tenant)
        if histogram is None:
            histogram = self._registry.histogram(
                "query_service_seconds",
                LATENCY_BUCKETS,
                labels=self._labels + (("tenant", tenant),),
                help="wall-clock seconds per served query, by tenant",
            )
            self._tenant_histograms[tenant] = histogram
        return histogram

    def _policy_pair(self, policy: ReturnPolicy):
        pair = self._policy_counters.get(policy.name)
        if pair is None:
            labels = self._labels + (("policy", policy.name),)
            pair = (
                self._registry.counter("queries_total", labels=labels),
                self._registry.counter("queries_answered", labels=labels),
            )
            self._policy_counters[policy.name] = pair
        return pair

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(
                self.tenant_rate, self.tenant_burst, clock=self.now()
            )
            self._buckets[tenant] = bucket
        return bucket

    # ------------------------------------------------------------------
    # The serving core (sync; the async wrapper adds admission)
    # ------------------------------------------------------------------

    def parse(self, text: str) -> Query:
        """Parse (and memoise, bounded) one query string.

        Eviction is first-in-first-out, so a hit costs what it did
        unbounded (one ``dict.get`` on the cache-hit path); a text still
        in use when its turn comes is parsed once more and re-enters.
        """
        query = self._parsed.get(text)
        if query is None:
            query = parse_query(text)
            if len(self._parsed) >= self.cache.capacity:
                self._parsed.popitem(last=False)
            self._parsed[text] = query
        return query

    def _cache_key(
        self, query: Query, keys: Optional[List[Key]]
    ) -> Tuple:
        """The cache identity of one request.

        Explicit candidate lists key on their full textual form; the
        service-default candidate set keys on its length (it is
        append-only, so length captures every change).
        """
        if keys is None:
            return (query.canonical(), "default", len(self._candidates()))
        return (query.canonical(), tuple(map(key_text, keys)))

    def serve(
        self,
        text: str,
        tenant: str = "default",
        keys: Optional[List[Key]] = None,
        use_cache: bool = True,
    ) -> ServiceResult:
        """Serve one query synchronously (quota + cache + fan-out).

        Every request runs this once; every check and count is here.  The
        async :meth:`query` gates the requests that will fan out.
        """
        started = perf_counter()
        clock = self.now()
        query = self.parse(text)
        if not self._bucket(tenant).take(clock):
            self._tenant_counter("query_quota_rejections_total", tenant).inc()
            raise QuotaExceeded(tenant)
        self.c_requests.inc()
        self._tenant_counter("query_tenant_requests_total", tenant).inc()
        # One map per served query (frozen once per epoch and role map by
        # the provider): the epoch an answer is cached under is the epoch
        # of the map it was planned on.
        shard_map = self._shard_map()
        epoch = shard_map.epoch
        if use_cache:
            # The cache identity is computed only where the cache is read.
            cache_key = self._cache_key(query, keys)
            cached = self.cache.get(cache_key, clock, epoch)
            self.g_cache_entries.set(float(len(self.cache)))
            if cached is not None:
                self._tenant_counter("query_cache_hits_total", tenant).inc()
                elapsed = perf_counter() - started
                self._tenant_histogram(tenant).observe(elapsed)
                return ServiceResult(
                    answer=cached, tenant=tenant, cached=True,
                    epoch=epoch, elapsed_seconds=elapsed,
                )
            self._tenant_counter("query_cache_misses_total", tenant).inc()
        answer = self._execute(query, keys, shard_map)
        if use_cache and answer.complete:
            evicted = self.cache.put(cache_key, answer, clock, epoch)
            if evicted:
                self.c_cache_evictions.inc(evicted)
            self.g_cache_entries.set(float(len(self.cache)))
        elapsed = perf_counter() - started
        self._tenant_histogram(tenant).observe(elapsed)
        return ServiceResult(
            answer=answer, tenant=tenant, cached=False,
            epoch=epoch, elapsed_seconds=elapsed,
        )

    def _execute(
        self, query: Query, keys: Optional[List[Key]], shard_map
    ) -> QueryAnswer:
        """Plan against the shard map :meth:`serve` resolved and fan out."""
        plan = self._plan(query, keys, shard_map)
        outcomes = plan.execute(self.backend)
        self.c_fanout_shards.inc(len(outcomes))
        failures = sum(1 for outcome in outcomes if outcome.failed)
        if failures:
            self.c_fanout_failures.inc(failures)
        answer = plan.merge(outcomes)
        if query.source is Source.KEYS:
            # Thread per-policy success into the same families
            # PipelineHealth reconciles -- the fan-out path is a query
            # plane like any other, and partial answers must be visible.  An
            # aggregate folds its rows first, so it counts its reads instead.
            reads = answers = 0
            for outcome in outcomes:
                reads += len(outcome.rows if outcome.partial is None else outcome.plan.keys)
                answers += sum(1 for row in outcome.rows if row.get("answered"))
            total, answered = self._policy_pair(plan.policy)
            total.inc(reads)
            answered.inc(answers)
        return answer

    def _plan(self, query: Query, keys: Optional[List[Key]], shard_map):
        """Plan ``query`` over ``keys`` (the service default when None)."""
        if keys is None and query.source is not Source.RING:
            keys = list(self._candidates())
        return plan_query(
            query, shard_map, self.backend, keys=keys,
            default_policy=self.policy,
        )

    def explain(self, text: str) -> str:
        """The plan (without executing it) for one query string."""
        return self._plan(self.parse(text), None, self._shard_map()).explain()

    # ------------------------------------------------------------------
    # The async front door
    # ------------------------------------------------------------------

    def _gate(self) -> asyncio.Semaphore:
        if self._semaphore is None:
            self._semaphore = asyncio.Semaphore(self.max_concurrency)
        return self._semaphore

    async def query(
        self,
        text: str,
        tenant: str = "default",
        keys: Optional[List[Key]] = None,
    ) -> ServiceResult:
        """Serve one query through admission control (the tenant API).

        A live hit is answered at the door, before any suspension: it spends
        its quota token in :meth:`serve` but takes no slot, gate or loop turn.
        A miss waits at the gate, and ``serve`` probes the cache again.
        """
        query = self._parsed.get(text)
        key = query is not None and self._cache_key(query, keys)
        if key and self.cache.live(key, self.now(), self.current_epoch):
            return self.serve(text, tenant=tenant, keys=keys)
        if self._pending >= self.max_pending:
            self.c_admission_rejections.inc()
            raise AdmissionRejected(self._pending)
        self._pending += 1
        try:
            async with self._gate():
                # Yield once so concurrent tenants interleave at the
                # gate even though each fan-out runs synchronously.
                await asyncio.sleep(0)
                return self.serve(text, tenant=tenant, keys=keys)
        finally:
            self._pending -= 1
