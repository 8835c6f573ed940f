"""The four workloads: their rigs, their seeded inputs, and the closed-loop driver.

A workload is a *recipe* -- an ordered list of stages ``(kind, calls,
size)`` that one round executes -- run on a *rig* built from the repo's
public constructors.  Every recipe contains every operation class, so
every end-to-end metric is defined on every workload; what differs is
which class dominates the round (see ``perf/README.md``).  One client
issues one operation at a time and waits for it (closed loop); all
traffic is in-process, no socket or real link is crossed.

Stage kinds
-----------
``write``   ``calls`` key-write batches of ``size`` reports (``size`` 1 =
            the per-event API, else the batch API)
``count``   ``calls`` Key-Increment batches of ``size`` ops
``point``   ``calls`` single-key lookups with the result cache bypassed
``sweep``   ``calls`` lookups of ``size`` keys each, cache bypassed
``cached``  ``calls`` keys looked up twice with the cache on: a fill, then
            a hit (only the hit is a ``cached`` latency sample)
``lookup``  ``calls`` single-key lookups through the async tenant API with
            the cache on, keys drawn skewed; hits and misses are told apart
            by the answer
"""

from __future__ import annotations

import asyncio
import gc
import inspect
import math
import os
import random
import resource
import statistics
from dataclasses import dataclass, replace
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.collector.counters import CounterStore
from repro.collector.store import DartStore
from repro.control.shards import shard_map_of
from repro.core.client import DartQueryClient
from repro.core.config import DartConfig
from repro.fabric.fabric import InlineFabric
from repro.fabric.impaired import ImpairedFabric
from repro.query.backend import FanoutBackend, key_text
from repro.query.fleet import QueryFleet
from repro.query.service import AdmissionRejected, QueryService, QuotaExceeded

from perf.oracle import Oracle, SlotModel, conservation_violations

POINT_QUERY = 'select value from keys where key == "%s"'
SWEEP_QUERY = "select value from keys"

#: Share of ``lookup`` draws taken from the hot set, the hot set's size, and
#: how many keys it slides along the pool each round (flows come and go; a
#: fixed hot set would tie the success ratio to the luck of 256 keys).
HOT_SHARE = 0.7
HOT_KEYS = 256
HOT_DRIFT = 32

#: Every stage of every round gives one reading per operation class, and a
#: metric is the reading at this quantile from the fast end (:func:`quiet`).
QUIET = 0.05

#: A ``point_p99_us`` reading is the p99 of this many consecutive point samples.
P99_WINDOW = 128

#: Measured rounds are grouped into this many segments for the noise floor.
SEGMENTS = 10

Stage = Tuple[str, int, int]


@dataclass(frozen=True)
class Spec:
    """One workload: deployment geometry plus the round recipe."""

    name: str
    why: str
    rig: str  # "store" (DartStore) or "fleet" (QueryFleet)
    pool: int  # distinct keys inputs are drawn from
    slots_per_collector: int
    prepopulate: int  # keys written (columnar) during set-up
    recipe: Tuple[Stage, ...]
    primary: str  # the stage kind whose rate the noise floor is taken on
    nominal_round_s: float  # one round here, at this commit; sizes fixed-count passes
    columnar: bool = True
    lossy: bool = False
    cache_ttl_ticks: int = 64
    #: Keys read back through the local (collector-CPU) client after the loop.
    verify_keys: int = 4096


def smoke_spec(spec: Spec) -> Spec:
    """The same workload at an eighth of every size (tests, not measurement)."""
    return replace(
        spec,
        pool=spec.pool // 8,
        slots_per_collector=spec.slots_per_collector // 8,
        prepopulate=spec.prepopulate // 8,
        verify_keys=spec.verify_keys // 8,
        recipe=tuple(
            (kind, max(1, calls // 8), max(1, size // 8))
            for kind, calls, size in spec.recipe
        ),
    )


_COMPANIONS: Tuple[Stage, ...] = (
    ("count", 1, 256), ("point", 64, 1), ("sweep", 1, 64), ("cached", 64, 1),
)

WORKLOADS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="ingest_columnar",
            why="The paper's main path: 4096-report batches through "
            "DartStore.put_many, where the per-key fold dominates.",
            rig="store", pool=1 << 17, slots_per_collector=1 << 16,
            prepopulate=0,
            recipe=(("write", 1, 4096),) * 4 + _COMPANIONS,
            primary="write", nominal_round_s=0.30,
        ),
        Spec(
            name="ingest_perframe",
            why="The per-event path: one report at a time through "
            "DartStore.put, where the scalar RoCEv2 codecs dominate.",
            rig="store", pool=1 << 17, slots_per_collector=1 << 16,
            prepopulate=0,
            recipe=(("write", 64, 1),) * 8 + _COMPANIONS,
            primary="write", nominal_round_s=0.21, columnar=False,
        ),
        Spec(
            name="query_uncached",
            why="The read side with the cache bypassed: point lookups and "
            "64-key sweeps as one-sided READs; writes are a side show.",
            rig="fleet", pool=1 << 15, slots_per_collector=1 << 14,
            prepopulate=1 << 15,
            recipe=(
                (("point", 64, 1), ("sweep", 1, 64)) * 4
                + (("write", 1, 256), ("count", 1, 256), ("cached", 64, 1))
            ),
            primary="point", nominal_round_s=0.19,
        ),
        Spec(
            name="serve_mixed_lossy",
            why="Writes, increments and cached tenant lookups side by side "
            "on a 2%-loss fabric: retries, PSN drops and the cache all work.",
            rig="fleet", pool=1 << 15, slots_per_collector=1 << 14,
            prepopulate=1 << 15,
            recipe=(
                (("write", 1, 256), ("count", 1, 256), ("lookup", 64, 1)) * 4
                + (("sweep", 1, 64),)
            ),
            primary="write", nominal_round_s=0.12, lossy=True,
            cache_ttl_ticks=8192,
        ),
    )
}

#: Operation classes that are queries (for ``queries_per_s``); ``hit`` and
#: ``miss`` are the two outcomes of a ``lookup`` stage's calls.
QUERY_KINDS = ("point", "sweep", "fill", "cached", "hit", "miss")


class Rig:
    """A deployment plus the handful of entry points the driver calls."""

    def __init__(self, spec: Spec, seed: int) -> None:
        self.config = config = DartConfig(
            slots_per_collector=spec.slots_per_collector,
            num_collectors=4, redundancy=2,
        )
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        service_kwargs = dict(
            tenant_rate=1e6, tenant_burst=1e9,
            cache_ttl_ticks=spec.cache_ttl_ticks,
        )
        if spec.rig == "store":
            fabric = InlineFabric()
            # ROADMAP item 2 may delete the flag; pass it only while it exists.
            columnar = (
                {"columnar": True}
                if spec.columnar
                and "columnar" in inspect.signature(DartStore).parameters
                else {}
            )
            store = DartStore(config, packet_level=True, fabric=fabric, **columnar)
            self.cluster = store.cluster
            # Entry points are looked up per call, so the traced pass's
            # class-level wrappers apply to rigs built before it.
            self.write_many: Callable = lambda items: store.put_many(items)
            self.write_one: Callable = lambda key, value: store.put(key, value)
            self.local_query: Callable = lambda key: store.get(key)
            counter_fabric = InlineFabric()
            counters = CounterStore(
                cells_per_row=1 << 12, rows=2, config=config,
                fabric=counter_fabric,
            )
            self.count_many: Callable = lambda items: counters.add_many(items)
            shard_map = shard_map_of(store.cluster)
            self.shard_map: Callable = lambda: shard_map
            self.service = QueryService(
                backend=FanoutBackend(config, store.cluster, fabric),
                shard_map_provider=self.shard_map, **service_kwargs,
            )
            switch = getattr(store, "_switch", None)
            counter_stores = [counters]
            self.planes = [
                ("keys", fabric, [c.nic for c in store.cluster.all_nodes]),
                ("counters", counter_fabric, [counters.nic]),
            ]
        else:
            def factory():
                if not spec.lossy:
                    return InlineFabric()
                return ImpairedFabric(
                    InlineFabric(), loss=0.02, duplication=0.01,
                    reordering=0.01, seed=seed,
                )

            fleet = QueryFleet(config, fabric_factory=factory)
            self.cluster = fleet.cluster
            switch = fleet.switch

            def write_many(items) -> int:
                offered = switch.report_batch_into(items)
                fleet.fabric.flush()
                fleet.settle(1)
                return offered

            self.write_many = write_many
            self.count_many = lambda items: fleet.count_many(items)
            client = DartQueryClient(config, reader=fleet.cluster.read_slot)
            self.local_query = lambda key: client.query(key)
            self.shard_map = fleet.shard_map
            self.service = QueryService(fleet, **service_kwargs)
            counter_stores = list(fleet.counter_stores.values())
            store_nics = [
                bank.nic
                for banks in (
                    fleet.counter_stores, fleet.sketch_stores, fleet.ring_stores
                )
                for bank in banks.values()
            ]
            self.planes = [
                ("keys", fleet.fabric, [c.nic for c in fleet.cluster.all_nodes]),
                ("stores", fleet.store_fabric, store_nics),
            ]
            if spec.lossy:
                self.loop = asyncio.new_event_loop()
        self.counter_rows = counter_stores[0].rows
        self.pools = []
        if switch is not None:
            self.pools.append(("switch", switch.frame_pool))
        for position, bank in enumerate(counter_stores):
            pool = getattr(bank.translator, "_pool", None)
            if pool is not None:
                self.pools.append((f"counters[{position}]", pool))

    def flush(self) -> None:
        for _name, fabric, _nics in self.planes:
            fabric.flush()

    def close(self) -> None:
        if self.loop is not None:
            self.loop.close()
            self.loop = None


def make_keys(spec: Spec, seed: int) -> List[object]:
    """The key pool: 5-tuple flow keys for stores, flow strings for fleets."""
    rng = random.Random(seed)
    octet, port = rng.randrange, rng.randrange
    keys = set()
    while len(keys) < spec.pool:
        src = f"10.{octet(256)}.{octet(256)}.{octet(256)}"
        dst = f"10.{octet(256)}.{octet(256)}.{octet(256)}"
        flow = (src, dst, port(1024, 65536), port(1, 1024), 6)
        keys.add(flow if spec.rig == "store" else "%s:%d>%s:%d/%d" % (
            flow[0], flow[2], flow[1], flow[3], flow[4]))
    return sorted(keys)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), exclusive method; a single value is all three."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def quiet(readings: Sequence[float]) -> float:
    """The reading of the quiet stages: the ``QUIET`` quantile from the fast end.

    The host's other tenants slow this box by about 1.65x, in bursts of
    10-30 seconds and in stutters of tens of milliseconds, for a third of a
    bad quarter of an hour; the median over rounds of identical code moved
    by 20-40% between runs.  Noise only ever adds time, so the
    twentieth-fastest of a run's few hundred short stages reads the
    program's own speed as long as the run touches a quiet stretch.
    """
    return percentile(sorted(readings), QUIET)


def quiet_p99(samples: Sequence[int]) -> float:
    """The quiet reading of the p99 over windows of ``P99_WINDOW`` consecutive samples.

    The whole-run p99 of identical code moved by 6-20% between runs, and
    reads half as high again as this one even on a quiet day: most of the
    raw tail on this box is the host's.  A window's p99 is its second
    slowest sample, so the quiet windows still hold whatever the program
    itself does to one operation in twenty or more (retries, extra READs);
    rarer events are the business of the whole-run p99 printed beside it.
    """
    windows = max(1, len(samples) // P99_WINDOW)
    size = len(samples) // windows
    return quiet([
        percentile(sorted(samples[begin:begin + size]), 0.99)
        for begin in range(0, size * windows, size)
    ])


class Driver:
    """Builds one rig, runs rounds of one workload against it, and judges them.

    With :attr:`tracer` unset (the end-to-end pass) a timing is the two
    clock reads around the call and nothing else.
    """

    def __init__(
        self, spec: Spec, seed: int, *, metrics_enabled: bool = True
    ) -> None:
        self.spec = spec
        self.seed = seed
        #: Set after :meth:`setup` for the traced pass; ``None`` otherwise.
        self.tracer = None
        self.metrics_enabled = metrics_enabled
        #: Key batches the traced pass replays through ``fold_keys``.
        self.replay_writes: List[List[object]] = []
        self.rounds: List[Dict[str, List[int]]] = []
        #: Rounds executed including the warm-up one (``rounds`` is cleared).
        self.rounds_run = 0
        self.samples: Dict[str, List[int]] = {
            "point": [], "sweep": [], "cached": [], "verify": [],
        }
        #: Per operation class, one entry per stage: ns per operation, and
        #: for the sampled classes the stage's samples, sorted.
        self.ns_per_op: Dict[str, List[float]] = {}
        self.stages: Dict[str, List[List[int]]] = {}
        self.attempted = 0
        self.failed = 0
        self.matches = 0
        self.verified = 0
        self.loop_ns = 0
        self.texts: set = set()
        self.violations: List[str] = []

    # -- set-up ----------------------------------------------------------

    def setup(self) -> float:
        """Inputs, rig, pre-population and one warm-up round; returns seconds."""
        started = perf_counter_ns()
        spec, seed = self.spec, self.seed
        self.previous_registry = obs.set_registry(
            obs.MetricsRegistry(enabled=self.metrics_enabled)
        )
        self.registry = obs.get_registry()
        self.keys = make_keys(spec, seed)
        self.key_texts = [key_text(key) for key in self.keys]
        self.index_of = {text: i for i, text in enumerate(self.key_texts)}
        self.rng = np.random.default_rng(seed)
        self.rig = rig = Rig(spec, seed)
        model = None if spec.lossy else SlotModel(rig.config, self.keys)
        self.oracle = Oracle(self.keys, seed, model)
        if spec.prepopulate:
            order = self.rng.permutation(spec.pool)[: spec.prepopulate]
            for begin in range(0, len(order), 4096):
                rig.write_many(self.oracle.stamp(order[begin:begin + 4096].tolist()))
        self.round()
        self.rounds.clear()
        self.ns_per_op.clear()
        self.stages.clear()
        for samples in self.samples.values():
            samples.clear()
        self.baseline = self.registry.snapshot()
        self.attempted = self.failed = 0
        self.oracle.outcomes = dict.fromkeys(self.oracle.outcomes, 0)
        return (perf_counter_ns() - started) / 1e9

    def teardown(self) -> None:
        self.rig.close()
        obs.set_registry(self.previous_registry)

    def window(self):
        """Registry counters accumulated since set-up finished."""
        return self.registry.snapshot().diff(self.baseline)

    # -- timed calls -----------------------------------------------------

    def _timed(self, acc, kind: str, ops: int, function: Callable, *args):
        tracer = self.tracer
        if tracer is not None:
            tracer.begin(kind, ops)
        started = perf_counter_ns()
        result = function(*args)
        elapsed = perf_counter_ns() - started
        if tracer is not None:
            tracer.finish()
        cell = acc.setdefault(kind, [0, 0])
        cell[0] += ops
        cell[1] += elapsed
        self.attempted += ops
        return result, elapsed

    def _judge(self, result, indexes: Sequence[int]) -> None:
        """Classify every row of one served answer against the oracle."""
        answer = result.answer
        if not answer.complete or len(answer.rows) != len(indexes):
            self.failed += 1
            self.oracle.error()
            return
        classify = self.oracle.classify
        if len(indexes) == 1:
            verdicts = [classify(indexes[0], answer.rows[0]["value"])]
        else:
            index_of = self.index_of
            verdicts = [
                classify(index_of[row["key"]], row["value"]) for row in answer.rows
            ]
        self.failed += "wrong" in verdicts

    def _serve(self, acc, kind: str, indexes: List[int], use_cache: bool):
        keys = [self.keys[i] for i in indexes]
        text = (
            POINT_QUERY % self.key_texts[indexes[0]]
            if len(indexes) == 1 else SWEEP_QUERY
        )
        self.texts.add(text)
        try:
            result, elapsed = self._timed(
                acc, kind, 1, self.rig.service.serve, text, "default", keys,
                use_cache,
            )
        except QuotaExceeded:
            self.failed += 1
            return None, 0
        self._judge(result, indexes)
        return result, elapsed

    def _written(self, count: int, distinct: bool = False) -> List[int]:
        written = self.oracle.written
        if distinct:
            picks = self.rng.choice(len(written), min(count, len(written)), replace=False)
        else:
            picks = self.rng.integers(0, len(written), count)
        return [written[i] for i in picks.tolist()]

    # -- stages ----------------------------------------------------------

    def _write(self, acc, calls: int, size: int) -> None:
        rig, pool = self.rig, self.spec.pool
        if size == 1:
            items = self.oracle.stamp(self.rng.integers(0, pool, calls).tolist())
            self._keep_for_replay(items)
            for key, value in items:
                self._timed(acc, "write", 1, rig.write_one, key, value)
            return
        for _call in range(calls):
            items = self.oracle.stamp(self.rng.integers(0, pool, size).tolist())
            self._keep_for_replay(items)
            self._timed(acc, "write", size, rig.write_many, items)

    def _keep_for_replay(self, items) -> None:
        if self.tracer is not None and len(self.replay_writes) < 8:
            self.replay_writes.append([key for key, _value in items])

    def _count(self, acc, calls: int, size: int) -> None:
        for _call in range(calls):
            picks = self.rng.integers(0, self.spec.pool, size).tolist()
            items = [(self.keys[i], 1) for i in picks]
            self._timed(acc, "count", size, self.rig.count_many, items)

    def _point(self, acc, calls: int, _size: int) -> None:
        samples = self.samples["point"]
        for index in self._written(calls):
            _result, elapsed = self._serve(acc, "point", [index], False)
            samples.append(elapsed)

    def _sweep(self, acc, calls: int, size: int) -> None:
        samples = self.samples["sweep"]
        for _call in range(calls):
            indexes = self._written(size, distinct=True)
            _result, elapsed = self._serve(acc, "sweep", indexes, False)
            samples.append(elapsed)

    def _cached(self, acc, calls: int, _size: int) -> None:
        # Expire every earlier fill so a hit can only return this round's
        # answer (lossless workloads must never serve a stale value).
        self.rig.service.tick(self.spec.cache_ttl_ticks)
        samples = self.samples["cached"]
        for index in self._written(calls, distinct=True):
            self._serve(acc, "fill", [index], True)
            result, elapsed = self._serve(acc, "cached", [index], True)
            if result is not None and not result.cached:
                self.violations.append("cached lookup missed the cache")
            samples.append(elapsed)

    def _lookup(self, acc, calls: int, _size: int) -> None:
        hot = self.rng.random(calls) < HOT_SHARE
        base = self.rounds_run * HOT_DRIFT
        hot_picks = self.rng.integers(base, base + HOT_KEYS, calls).tolist()
        cold = self._written(calls)
        indexes = [
            hot_picks[i] % self.spec.pool if hot[i] else cold[i]
            for i in range(calls)
        ]
        self.rig.loop.run_until_complete(self._lookups(acc, indexes))

    async def _lookups(self, acc, indexes: List[int]) -> None:
        query, tracer = self.rig.service.query, self.tracer
        for index in indexes:
            text = POINT_QUERY % self.key_texts[index]
            self.texts.add(text)
            self.attempted += 1
            if tracer is not None:
                tracer.begin("lookup")
            started = perf_counter_ns()
            try:
                result = await query(text, keys=[self.keys[index]])
            except (QuotaExceeded, AdmissionRejected):
                result = None
            elapsed = perf_counter_ns() - started
            if tracer is not None:
                tracer.finish()
            hit = result is not None and result.cached
            cell = acc.setdefault("hit" if hit else "miss", [0, 0])
            cell[0] += 1
            cell[1] += elapsed
            if result is None:
                self.failed += 1
                continue
            self._judge(result, [index])
            self.samples["cached" if hit else "point"].append(elapsed)

    def round(self) -> None:
        """Run the recipe once: a reading per stage, ``{kind: [ops, ns]}`` per round."""
        acc: Dict[str, List[int]] = {}
        for stage_kind, calls, size in self.spec.recipe:
            stage: Dict[str, List[int]] = {}
            taken = {kind: len(samples) for kind, samples in self.samples.items()}
            getattr(self, "_" + stage_kind)(stage, calls, size)
            for kind, (ops, ns) in stage.items():
                self.ns_per_op.setdefault(kind, []).append(ns / ops)
                cell = acc.setdefault(kind, [0, 0])
                cell[0] += ops
                cell[1] += ns
            for kind, samples in self.samples.items():
                if len(samples) > taken[kind]:
                    self.stages.setdefault(kind, []).append(
                        sorted(samples[taken[kind]:]))
        self.rounds.append(acc)
        self.rounds_run += 1

    # -- the measured loop ----------------------------------------------

    def run(self, seconds: float, rounds: Optional[int] = None) -> None:
        """Rounds until ``seconds`` have passed, or exactly ``rounds`` of them."""
        gc.collect()
        started = perf_counter_ns()
        if rounds is None:
            deadline = started + int(seconds * 1e9)
            while len(self.rounds) < SEGMENTS or perf_counter_ns() < deadline:
                self.round()
        else:
            for _round in range(rounds):
                self.round()
        self.loop_ns = perf_counter_ns() - started

    def verify(self) -> None:
        """Read keys back through the collector-CPU client; check conservation."""
        count = min(self.spec.verify_keys, len(self.oracle.written))
        acc: Dict[str, List[int]] = {}
        samples = self.samples["verify"]
        for index in self._written(count, distinct=True):
            result, elapsed = self._timed(
                acc, "verify", 1, self.rig.local_query, self.keys[index]
            )
            self.failed += self.oracle.classify(index, result.value) == "wrong"
            self.matches += result.matches
            samples.append(elapsed)
        self.verified = count
        self.rig.flush()
        if self.metrics_enabled:
            self.violations += conservation_violations(self.rig.planes, self.rig.pools)
        if not self.spec.lossy:
            if self.oracle.mispredicted:
                self.violations.append(
                    f"{self.oracle.mispredicted} answers differ from the slot model"
                )
            if self.oracle.outcomes["stale"]:
                self.violations.append("stale answer on a lossless workload")
            if self.metrics_enabled:
                atomics = self.registry.total("nic_atomics_executed")
                expected = self.rig.counter_rows * self.registry.total(
                    "increments_total"
                )
                if atomics != expected:
                    self.violations.append(
                        f"atomics executed {atomics} != rows x increments {expected}"
                    )
        if self.oracle.outcomes["wrong"] or self.oracle.outcomes["error"]:
            self.violations.append(
                f"wrong={self.oracle.outcomes['wrong']} "
                f"error={self.oracle.outcomes['error']}"
            )

    # -- metrics ---------------------------------------------------------

    def per_round(self, kinds: Sequence[str]) -> List[Tuple[int, int]]:
        """(ops, ns) summed over ``kinds``, one pair per measured round."""
        pairs = []
        for acc in self.rounds:
            ops = sum(acc[k][0] for k in kinds if k in acc)
            ns = sum(acc[k][1] for k in kinds if k in acc)
            pairs.append((ops, ns))
        return pairs

    def rate(self, kinds: Sequence[str]) -> float:
        """Ops per second inside the calls of ``kinds``, each at its quiet cost.

        Several classes are weighted by how many operations of each the
        measured rounds issued, so the mix is the recipe's, not the noise's.
        """
        ops = {
            kind: sum(acc[kind][0] for acc in self.rounds if kind in acc)
            for kind in kinds
        }
        quiet_ns = sum(
            count * quiet(self.ns_per_op[kind]) for kind, count in ops.items() if count
        )
        return sum(ops.values()) * 1e9 / quiet_ns

    def p50(self, kind: str) -> float:
        """The median latency of ``kind`` (ns) in its quiet stages."""
        return quiet([percentile(stage, 0.5) for stage in self.stages[kind]])

    def segment_iqr_ratio(self) -> float:
        """IQR / median of the primary stage's rate over equal-count segments."""
        pairs = self.per_round((self.spec.primary,))
        per_segment = max(1, len(pairs) // SEGMENTS)
        rates = []
        for begin in range(0, per_segment * SEGMENTS, per_segment):
            chunk = pairs[begin:begin + per_segment]
            ns = sum(ns for _ops, ns in chunk)
            if ns:
                rates.append(sum(ops for ops, _ns in chunk) * 1e9 / ns)
        if len(rates) < 2:
            return 0.0
        q1, median, q3 = quartiles(rates)
        return (q3 - q1) / median

    def end_to_end(self) -> Dict[str, Tuple[float, str, int]]:
        """``{name: (value, unit, sample count)}``, all but ``setup_s``."""
        point, sweep, cached = (
            self.samples[kind] for kind in ("point", "sweep", "cached")
        )
        reports = sum(ops for ops, _ns in self.per_round(("write",)))
        offered = reports * self.rig.config.redundancy
        landed = self.window().total("nic_writes_executed")
        outcomes = self.oracle.outcomes

        def readings(kinds: Sequence[str]) -> int:
            return sum(len(self.ns_per_op.get(kind, ())) for kind in kinds)

        return {
            "reports_per_s": (self.rate(("write",)), "1/s", readings(("write",))),
            "report_landed_ratio": (landed / offered, "ratio", offered),
            "increments_per_s": (self.rate(("count",)), "1/s", readings(("count",))),
            "point_p50_us": (self.p50("point") / 1e3, "us", len(point)),
            "point_p99_us": (quiet_p99(point) / 1e3, "us", len(point)),
            "sweep_p50_ms": (self.p50("sweep") / 1e6, "ms", len(sweep)),
            "cached_p50_us": (self.p50("cached") / 1e3, "us", len(cached)),
            "queries_per_s": (self.rate(QUERY_KINDS), "1/s", readings(QUERY_KINDS)),
            "query_success_ratio": (
                outcomes["latest"] / self.oracle.judged, "ratio", self.oracle.judged
            ),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1
            ),
        }

    def environment(self) -> Dict[str, object]:
        """The run's own noise floor (a ``noisy`` run cannot resolve a 10% change)."""
        ratio = self.segment_iqr_ratio()
        point = sorted(self.samples["point"])
        return {
            "point_p50_whole_run_us": percentile(point, 0.5) / 1e3 if point else 0.0,
            "point_p99_whole_run_us": percentile(point, 0.99) / 1e3 if point else 0.0,
            "loadavg_1m": os.getloadavg()[0],
            "segment_iqr_ratio": ratio,
            "noisy": ratio > 0.10,
            "rounds": len(self.rounds),
        }
