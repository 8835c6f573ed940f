"""A closed-loop load generator for the query front end.

Drives N simulated users (tens of thousands of concurrent asyncio
tasks) against one :class:`~repro.query.service.QueryService`.  The
loop is *closed*: each user issues its next query only after the
previous one resolves -- completes, is rejected over quota, or is shed
at admission -- so offered load self-regulates to the service's
capacity the way real interactive tenants do, instead of open-loop
flooding.

The generator also owns the packet clock: every ``tick_stride``
completed requests it advances the service's logical clock by one tick,
which is what refills the tenants' token buckets and ages the result
cache.  Run outcomes fold into a :class:`LoadReport` (throughput,
latency quantiles, cache and rejection accounting).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple

from repro.hashing.hash_family import Key
from repro.query.backend import key_text
from repro.query.service import (
    AdmissionRejected,
    QueryService,
    QuotaExceeded,
)


def quantile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile of ``samples`` (nearest-rank; 0.0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered))))
    return ordered[rank]


@dataclass
class UserScript:
    """What one simulated user repeatedly asks.

    ``keys`` narrows the candidate set (None means the service default);
    ``tenant`` is the quota identity the user runs under.
    """

    text: str
    tenant: str = "default"
    keys: Optional[List[Key]] = None


@dataclass
class LoadReport:
    """The outcome of one closed-loop run."""

    users: int = 0
    issued: int = 0
    #: Completed queries whose every planned shard contributed.
    answered: int = 0
    #: Completed queries missing at least one shard.
    incomplete: int = 0
    cache_hits: int = 0
    rejected_quota: int = 0
    rejected_admission: int = 0
    duration_seconds: float = 0.0
    latencies: List[float] = field(default_factory=list)
    #: Seconds each served query's caller waited, the gate included.
    waits: List[float] = field(default_factory=list)

    @property
    def completed(self) -> int:
        """Queries that produced an answer (cache hit or fan-out)."""
        return self.answered + self.incomplete

    @property
    def p50_seconds(self) -> float:
        """Median served-query latency."""
        return quantile(self.latencies, 0.50)

    @property
    def p99_seconds(self) -> float:
        """Tail served-query latency."""
        return quantile(self.latencies, 0.99)

    @property
    def wait_p50_seconds(self) -> float:
        """Median seconds a served query's caller waited."""
        return quantile(self.waits, 0.50)

    @property
    def wait_p99_seconds(self) -> float:
        """Tail seconds a served query's caller waited."""
        return quantile(self.waits, 0.99)

    @property
    def qps(self) -> float:
        """Completed queries per wall-clock second."""
        if self.duration_seconds <= 0:
            return 0.0
        return self.completed / self.duration_seconds

    def to_dict(self) -> dict:
        """JSON-ready summary (the bench artifact embeds this)."""
        return {
            "users": self.users,
            "issued": self.issued,
            "answered": self.answered,
            "incomplete": self.incomplete,
            "cache_hits": self.cache_hits,
            "rejected_quota": self.rejected_quota,
            "rejected_admission": self.rejected_admission,
            "completed": self.completed,
            "duration_seconds": self.duration_seconds,
            "p50_seconds": self.p50_seconds,
            "p99_seconds": self.p99_seconds,
            "wait_p50_seconds": self.wait_p50_seconds,
            "wait_p99_seconds": self.wait_p99_seconds,
            "qps": self.qps,
        }


class LoadGenerator:
    """Closed-loop driver: ``users`` concurrent tasks, one script each.

    Parameters
    ----------
    service:
        The query front end under load.
    scripts:
        The scripts users cycle through (user ``i`` runs script
        ``i % len(scripts)``).
    users:
        Concurrent simulated users (asyncio tasks).
    requests_per_user:
        Closed-loop iterations per user.
    tick_stride:
        Completed requests between logical-clock ticks (the packet
        clock the quotas and cache TTLs run on).
    """

    def __init__(
        self,
        service: QueryService,
        scripts: Sequence[UserScript],
        *,
        users: int = 10_000,
        requests_per_user: int = 1,
        tick_stride: int = 64,
    ) -> None:
        if not scripts:
            raise ValueError("need at least one user script")
        if users < 1:
            raise ValueError(f"users must be >= 1, got {users}")
        if tick_stride < 1:
            raise ValueError(f"tick_stride must be >= 1, got {tick_stride}")
        self.service = service
        self.scripts = list(scripts)
        self.users = users
        self.requests_per_user = requests_per_user
        self.tick_stride = tick_stride
        self._resolved = 0

    async def _user(self, user_index: int, report: LoadReport) -> None:
        """One simulated user's closed loop."""
        script = self.scripts[user_index % len(self.scripts)]
        for _request in range(self.requests_per_user):
            report.issued += 1
            started = perf_counter()
            try:
                result = await self.service.query(
                    script.text, tenant=script.tenant, keys=script.keys
                )
            except QuotaExceeded:
                report.rejected_quota += 1
            except AdmissionRejected:
                report.rejected_admission += 1
            else:
                report.waits.append(perf_counter() - started)
                if result.answer.complete:
                    report.answered += 1
                else:
                    report.incomplete += 1
                if result.cached:
                    report.cache_hits += 1
                report.latencies.append(result.elapsed_seconds)
            self._resolved += 1
            if self._resolved % self.tick_stride == 0:
                self.service.tick()

    async def _run(self) -> LoadReport:
        report = LoadReport(users=self.users)
        started = perf_counter()
        tasks = [
            asyncio.ensure_future(self._user(index, report))
            for index in range(self.users)
        ]
        await asyncio.gather(*tasks)
        report.duration_seconds = perf_counter() - started
        return report

    def run(self) -> LoadReport:
        """Run the whole fleet of users to completion and report."""
        return asyncio.run(self._run())


def hot_keyset_scripts(
    keys: Sequence[Key],
    *,
    tenants: Sequence[str] = ("default",),
) -> List[UserScript]:
    """Scripts for a hot-keyset workload: point lookups over ``keys``.

    One script per (key, tenant) pair; with many users cycling a small
    keyset this produces the cache-friendly load the bench gate uses to
    separate the cached and uncached serving paths.
    """
    scripts = []
    for index, key in enumerate(keys):
        tenant = tenants[index % len(tenants)]
        scripts.append(
            UserScript(
                text=f'select value from keys where key == "{key_text(key)}"',
                tenant=tenant,
                keys=list(keys),
            )
        )
    return scripts


#: A factory signature tests use to parameterise workloads.
ScriptFactory = Callable[[Sequence[Key]], List[UserScript]]

#: Convenience alias for callers composing mixed workloads.
Workload = Tuple[QueryService, List[UserScript]]
