"""Per-layer metrics: what the traced pass says each layer cost, and what it counted.

Everything here is derived after the fact from three sources: the folded
spans of :mod:`perf.trace`, the registry counters the layers already
expose (read as a window since set-up), and direct replay calls of the
module-level functions that cannot be patched.  The end-to-end metric
each of these should move, and on which workload, is tabulated in
``perf/README.md``.  A layer a workload never enters reads 0.
"""

from __future__ import annotations

import gc
import os
from typing import Dict, List, Tuple

from repro.core.addressing import DartAddressing
from repro.core.policies import ReturnPolicy, resolve
from repro.hashing.hash_family import fold_keys
from repro.query.lang import parse_query
from repro.query.planner import plan_query

from perf.trace import LAYERS, SpanTracer, Stat, layer_self_ns, replay
from perf.workloads import POINT_QUERY, Driver, Spec, percentile, quartiles

Metric = Tuple[float, str]

#: Alternating enabled/disabled round pairs for the registry's cost.
OBS_PAIRS = 6

#: Keys whose parse / plan / policy fold are replayed.
REPLAY_KEYS = 256

_ZERO = Stat(0, 0, 0, 0)


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def _policy_fold(codec, raws: List[bytes], checksum: int):
    """The checksum filter + return policy, as every read path spells it."""
    matching = []
    for raw in raws:
        stored, value = codec.decode(raw)
        if stored == checksum:
            matching.append(value)
    return resolve(matching, ReturnPolicy.PLURALITY, slots_read=len(raws))


def replay_metrics(driver: Driver) -> Dict[str, Metric]:
    """Time the unpatchable module-level functions on the traced pass's inputs."""
    rig, config = driver.rig, driver.rig.config
    fold_ns, _calls = replay(fold_keys, [(keys,) for keys in driver.replay_writes])
    folded = sum(len(keys) for keys in driver.replay_writes)

    sample = driver.oracle.written[:REPLAY_KEYS]
    texts = [POINT_QUERY % driver.key_texts[index] for index in sample]
    parse_ns, parses = replay(parse_query, [(text,) for text in texts])
    shard_map, backend = rig.shard_map(), rig.service.backend
    plan_ns, plans = replay(
        plan_query,
        [
            (parse_query(text), shard_map, backend, [driver.keys[index]])
            for text, index in zip(texts, sample)
        ],
    )
    addressing, codec = DartAddressing(config), config.slot_codec()
    folds = []
    for index in sample:
        resolved = addressing.resolve(driver.keys[index])
        raws = [
            rig.cluster.read_slot(resolved.collector_id, slot)
            for slot in resolved.slot_indexes
        ]
        folds.append((codec, raws, resolved.checksum))
    policy_ns, policies = replay(_policy_fold, folds)
    return {
        "hashing.fold_ns_per_key": (_per(fold_ns, folded), "ns"),
        "query.lang.parse_ns_per_query": (_per(parse_ns, parses), "ns"),
        "query.planner.plan_ns_per_query": (_per(plan_ns, plans), "ns"),
        "core.policies.fold_ns_per_key": (_per(policy_ns, policies), "ns"),
    }


def metrics_cost(spec: Spec, seed: int) -> Dict[str, Metric]:
    """Cost of the enabled registry on the primary stage, from alternating rounds.

    Two rigs on identical inputs, one built under
    ``MetricsRegistry(enabled=False)``; each pair runs one round on both
    (order alternating) and compares time per primary operation.  The
    quartiles are reported so a negative reading shows its spread.
    """
    enabled = Driver(spec, seed)
    disabled = Driver(spec, seed, metrics_enabled=False)
    enabled.setup()
    disabled.setup()
    try:
        gc.collect()
        for pair in range(OBS_PAIRS):
            for driver in (enabled, disabled)[:: 1 if pair % 2 == 0 else -1]:
                driver.round()
    finally:
        disabled.teardown()
        enabled.teardown()
    ratios = [
        (on_ns / on_ops) / (off_ns / off_ops) - 1.0
        for (on_ops, on_ns), (off_ops, off_ns) in zip(
            enabled.per_round((spec.primary,)),
            disabled.per_round((spec.primary,)),
        )
    ]
    q1, median, q3 = quartiles(ratios)
    return {
        "obs.metrics_cost_ratio": (median, "ratio"),
        "obs.metrics_cost_ratio_q1": (q1, "ratio"),
        "obs.metrics_cost_ratio_q3": (q3, "ratio"),
    }


def _timed_ns(driver: Driver) -> int:
    return sum(ns for acc in driver.rounds for _ops, ns in acc.values())


def per_layer(
    traced: Driver, tracer: SpanTracer, plain: Driver, fold_ns_per_key: float
) -> Dict[str, Metric]:
    """Every span- and counter-derived per-layer metric of one traced pass.

    ``plain`` ran the same rounds on the same inputs without the wrappers;
    the two passes' timed totals give the tracing overhead.  The key fold
    runs inside ``ReportBatch.from_items`` where no wrapper can reach it,
    so its replayed cost is moved from ``core`` to ``hashing`` in the
    layer shares.
    """
    folded = tracer.fold()
    window = traced.window()
    spec, rig = traced.spec, traced.rig

    def stat(name: str) -> Stat:
        return folded.get(name, _ZERO)

    def counted(name: str, **labels: str) -> float:
        return window.total(name, **labels)

    roots = [s for name, s in folded.items() if name.startswith("bench.")]
    root_ns = sum(s.total_ns for s in roots)
    layers = layer_self_ns(folded)
    fold_ns = int(fold_ns_per_key * stat("core.ReportBatch.from_items").size)
    layers["hashing"] += fold_ns
    layers["core"] -= fold_ns

    send, send_many = stat("fabric.InlineFabric.send"), stat("fabric.InlineFabric.send_many")
    impaired_ns = sum(
        s.self_ns for name, s in folded.items()
        if name.startswith("fabric.ImpairedFabric.")
    )
    offered_kind = {"kind": "ImpairedFabric"} if spec.lossy else {}
    ingest_batch = stat("rdma.RdmaNic.ingest_batch")
    responses = counted("nic_responses_emitted")
    read_run, read_reliable = (
        stat("primitives.OneSidedReader.read_run"),
        stat("query.FanoutBackend.read_reliable"),
    )
    serve = stat("query.QueryService.serve")
    hits = counted("query_cache_hits_total")
    misses = counted("query_cache_misses_total")
    backend_queries = serve.count - hits
    reads_sent = counted("primitive_read_requests")
    pools = [pool for _name, pool in rig.pools]
    acquired = sum(pool.allocations + pool.reuses for pool in pools)
    verify = sorted(traced.samples["verify"])
    outcomes = traced.oracle.outcomes

    def self_per_size(name: str) -> float:
        return _per(stat(name).self_ns, stat(name).size)

    def total_per_count(name: str) -> float:
        return _per(stat(name).total_ns, stat(name).count)

    values: Dict[str, Metric] = {
        "core.batch.from_items_self_ns_per_report": (
            self_per_size("core.ReportBatch.from_items"), "ns"),
        "core.addressing.resolve_ns_per_key": (
            total_per_count("core.DartAddressing.resolve"), "ns"),
        "core.client.local_query_us": (
            percentile(verify, 0.5) / 1e3 if verify else 0.0, "us"),
        "switch.encode_batch_self_ns_per_frame": (
            self_per_size("switch.DartSwitch.encode_batch"), "ns"),
        "switch.report_self_ns_per_frame": (
            self_per_size("switch.DartSwitch.report"), "ns"),
        "switch.frames_emitted": (counted("switch_reports_emitted"), "count"),
        "fabric.send_batch_self_ns_per_frame": (
            self_per_size("fabric.InlineFabric.send_batch"), "ns"),
        "fabric.send_self_ns_per_frame": (
            _per(send.self_ns + send_many.self_ns, send.count + send_many.size),
            "ns"),
        "fabric.poll_self_ns_per_call": (
            _per(stat("fabric.Fabric.poll").self_ns, stat("fabric.Fabric.poll").count),
            "ns"),
        "fabric.impair_self_ns_per_frame": (
            _per(impaired_ns, counted("fabric_frames_offered", kind="ImpairedFabric")),
            "ns"),
        "fabric.frames_offered": (
            counted("fabric_frames_offered", **offered_kind), "count"),
        "fabric.frames_delivered": (
            counted("fabric_frames_delivered", kind="InlineFabric"), "count"),
        "fabric.frames_dropped_loss": (counted("fabric_frames_dropped_loss"), "count"),
        "fabric.frames_duplicated": (counted("fabric_frames_duplicated"), "count"),
        "fabric.frames_reordered": (counted("fabric_frames_reordered"), "count"),
        "fabric.flushes": (counted("fabric_flushes"), "count"),
        "rdma.packets.pack_ns_per_frame": (
            total_per_count("rdma.RoceV2Packet.pack"), "ns"),
        "rdma.packets.unpack_ns_per_frame": (
            total_per_count("rdma.RoceV2Packet.unpack"), "ns"),
        "rdma.nic.ingest_batch_self_ns_per_frame": (
            _per(ingest_batch.self_ns, ingest_batch.size), "ns"),
        "rdma.nic.receive_frame_self_ns_per_frame": (
            _per(stat("rdma.RdmaNic.receive_frame").self_ns,
                 stat("rdma.RdmaNic.receive_frame").count), "ns"),
        "rdma.nic.transmit_self_ns_per_response": (
            _per(stat("rdma.RdmaNic.transmit").self_ns, responses), "ns"),
        "rdma.nic.batch_fallback_ratio": (
            _per(tracer.count_under(
                "rdma.RdmaNic.receive_frame", "rdma.RdmaNic.ingest_batch"),
                ingest_batch.size), "ratio"),
        "rdma.frames.pool_reuse_ratio": (
            _per(sum(pool.reuses for pool in pools), acquired), "ratio"),
        "rdma.frames.pool_in_flight_end": (
            sum(pool.in_flight for pool in pools), "count"),
        "mem.region.write_columnar_ns_per_slot": (
            _per(stat("mem.MemoryRegion.write_offset_columnar").total_ns,
                 stat("mem.MemoryRegion.write_offset_columnar").size), "ns"),
        "mem.region.dma_write_ns_per_op": (
            total_per_count("mem.MemoryRegion.dma_write"), "ns"),
        "mem.region.dma_read_ns_per_op": (
            total_per_count("mem.MemoryRegion.dma_read"), "ns"),
        "mem.region.fetch_add_many_ns_per_op": (
            _per(stat("mem.MemoryRegion.dma_fetch_add_many").total_ns,
                 stat("mem.MemoryRegion.dma_fetch_add_many").size), "ns"),
        "mem.region.slots_written": (counted("mem_writes"), "count"),
        "collector.copies_surviving_ratio": (
            _per(traced.matches, traced.verified * rig.config.redundancy), "ratio"),
        "collector.load_factor": (
            len(traced.oracle.written) / rig.config.total_slots, "ratio"),
        "primitives.reader.read_run_self_ns_per_read": (
            _per(read_run.self_ns, read_run.size), "ns"),
        "primitives.demux.poll_take_ns_per_response": (
            _per(stat("primitives.ResponseDemux.poll").self_ns
                 + stat("primitives.ResponseDemux.take").self_ns, responses), "ns"),
        "primitives.reader.reads_sent": (reads_sent, "count"),
        "primitives.reader.reads_unanswered": (
            reads_sent - counted("nic_reads_executed"), "count"),
        "primitives.key_increment.add_many_self_ns_per_op": (
            self_per_size("collector.CounterStore.add_many"), "ns"),
        "query.lang.parses": (len(traced.texts), "count"),
        "query.backend.keys_rows_self_ns_per_key": (
            self_per_size("query.FanoutBackend.keys_rows"), "ns"),
        "query.backend.reads_per_query": (_per(reads_sent, backend_queries), "count"),
        "query.backend.read_retry_ratio": (
            _per(read_run.size - read_reliable.size, read_run.size), "ratio"),
        "query.service.serve_self_ns_per_query": (
            _per(serve.self_ns, serve.count), "ns"),
        "query.service.gate_ns_per_query": (
            _per(stat("query.QueryService.query").self_ns,
                 stat("query.QueryService.query").count), "ns"),
        "query.service.cache_hit_ratio": (_per(hits, hits + misses), "ratio"),
        "query.service.cache_evictions": (
            counted("query_cache_evictions_total"), "count"),
        "query.service.fanout_shards_per_query": (
            _per(counted("query_fanout_shards_total"), backend_queries), "count"),
        "bench.trace_overhead_ratio": (
            _per(_timed_ns(traced), _timed_ns(plain)) - 1.0, "ratio"),
        "bench.unattributed_ratio": (
            _per(sum(s.self_ns for s in roots), root_ns), "ratio"),
        "bench.generator_share": (
            1.0 - _per(_timed_ns(plain), plain.loop_ns), "ratio"),
        "bench.segment_iqr_ratio": (plain.segment_iqr_ratio(), "ratio"),
        "bench.spans_recorded": (sum(tracer.in_operation()), "count"),
        "bench.loadavg_1m": (os.getloadavg()[0], "load"),
        "bench.op_failure_ratio": (
            _per(traced.failed + plain.failed, traced.attempted + plain.attempted),
            "ratio"),
    }
    for counter in (
        "frames_received", "writes_executed", "reads_executed",
        "atomics_executed", "dropped_decode", "dropped_psn", "dropped_access",
        "dropped_unknown_qp", "dropped_opcode",
    ):
        values[f"rdma.nic.{counter}"] = (counted(f"nic_{counter}"), "count")
    for outcome, count in outcomes.items():
        values[f"query.outcome.{outcome}"] = (count, "count")
    for layer in LAYERS:
        values[f"layer_share.{layer}"] = (_per(layers[layer], root_ns), "ratio")
    return values
