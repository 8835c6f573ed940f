"""Derived pipeline-health gauges reconciled across layers.

The registry's raw series are per-layer facts (frames the fabric offered,
frames the NICs received, slots the regions wrote).  This module derives
the quantities the paper reasons about:

- frame loss / duplication / reorder rates, reconciled from the impairment
  layer's accounting against what the NICs actually received (paper
  sections 3.1 and 6: the RNIC drops invalid frames silently; redundancy
  absorbs the gaps);
- slot-overwrite rate -- the collision pressure that drives query success
  probability in section 4 (a query fails when all ``N`` copies were
  overwritten);
- query success rate per return policy (section 4's empty-vs-error trade).

:func:`render_dashboard` turns one registry into the operator-facing text
snapshot the ``repro obs`` CLI prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import Histogram, MetricsRegistry, MetricsSnapshot


def _rate(numerator: float, denominator: float) -> float:
    """``numerator / denominator`` with a 0.0 guard for empty windows."""
    return numerator / denominator if denominator else 0.0


@dataclass
class QueryHealth:
    """Query-plane health for one return policy."""

    policy: str
    total: int
    answered: int

    @property
    def success_rate(self):
        """Fraction of queries that returned a value.

        ``None`` when zero queries were issued under the policy -- an
        empty window has no success rate, and 0.0 would read as "every
        query failed" to dashboards and the SLO conformance rules.
        """
        if not self.total:
            return None
        return self.answered / self.total


@dataclass
class PipelineHealth:
    """One reconciled health reading of the whole telemetry pipeline."""

    # Fabric-side accounting.
    frames_offered: int = 0
    frames_delivered: int = 0
    frames_executed: int = 0
    frames_rejected: int = 0
    frames_lost: int = 0
    frames_duplicated: int = 0
    frames_reordered: int = 0
    #: Frames offered at the impairment layer (rate denominator); falls
    #: back to all offered frames when no impairment layer exists.
    impairment_offered: int = 0
    # NIC-side accounting.
    nic_frames_received: int = 0
    nic_frames_dropped: int = 0
    nic_writes_executed: int = 0
    nic_atomics_executed: int = 0
    nic_drop_breakdown: Dict[str, int] = field(default_factory=dict)
    # Memory-side accounting.
    mem_writes: int = 0
    mem_atomics: int = 0
    mem_slot_overwrites: int = 0
    # Query plane, per return policy.
    queries: List[QueryHealth] = field(default_factory=list)
    # Query front-end fan-out accounting (repro.query).
    fanout_shards: int = 0
    fanout_shard_failures: int = 0

    @property
    def loss_rate(self) -> float:
        """Fraction of offered frames dropped in flight by impairments."""
        return _rate(self.frames_lost, self.impairment_offered)

    @property
    def duplication_rate(self) -> float:
        """Fraction of offered frames that were delivered twice."""
        return _rate(self.frames_duplicated, self.impairment_offered)

    @property
    def reorder_rate(self) -> float:
        """Fraction of offered frames held for adjacent-swap reordering."""
        return _rate(self.frames_reordered, self.impairment_offered)

    @property
    def delivery_rate(self) -> float:
        """NIC-received frames over offered frames (the survival rate)."""
        return _rate(self.nic_frames_received, self.impairment_offered)

    @property
    def fabric_nic_delta(self) -> int:
        """Delivered-vs-received reconciliation (0 when nothing bypasses
        the fabric seam and everything in flight has been flushed)."""
        return self.frames_delivered - self.nic_frames_received

    @property
    def atomic_bypass_delta(self) -> int:
        """Memory atomics not accounted for by any NIC (0 when healthy).

        Every atomic should enter a region through a NIC executing a
        FETCH_ADD / CMP_SWAP frame; a positive delta means some code
        path called ``dma_fetch_add`` / ``dma_compare_swap`` directly,
        bypassing the wire (the bug the Sketch-Merge lowering fixed in
        ``CounterStore.merge_from``).
        """
        return self.mem_atomics - self.nic_atomics_executed

    @property
    def shard_failure_rate(self) -> float:
        """Fraction of fanned-out shard sub-queries that found their
        shard unreachable.

        The query front end merges whatever shards answered, so a
        partial-shard failure is invisible in the *answer* -- this rate
        is where it must show up instead (and what the query SLO rules
        watch during failover).
        """
        return _rate(self.fanout_shard_failures, self.fanout_shards)

    @property
    def slot_overwrite_rate(self) -> float:
        """Fraction of memory writes that overwrote live (non-zero) slots.

        This is the observable twin of the collision pressure in the
        paper's section-4 success-probability model: the higher the load
        factor, the more copies land on already-occupied slots.
        """
        return _rate(self.mem_slot_overwrites, self.mem_writes)

    @classmethod
    def from_registry(cls, registry: MetricsRegistry) -> "PipelineHealth":
        """Reconcile one health reading from a registry's live series."""
        return cls.from_snapshot(registry.snapshot())

    @classmethod
    def from_snapshot(cls, snapshot: MetricsSnapshot) -> "PipelineHealth":
        """Reconcile one health reading from an immutable snapshot.

        Lets the fleet dashboard derive *per-node* health from
        :meth:`MetricsSnapshot.filter_labels` sub-snapshots -- including
        snapshots shipped from another process -- with exactly the
        reconciliation rules the live reading uses.
        """
        total = snapshot.total
        impairment_offered = int(total("fabric_frames_offered", kind="ImpairedFabric"))
        offered = int(total("fabric_frames_offered"))
        if impairment_offered == 0:
            impairment_offered = offered
        drop_breakdown = {
            reason: int(total(f"nic_dropped_{reason}"))
            for reason in ("decode", "unknown_qp", "psn", "access", "opcode")
        }
        queries = []
        answered_by_policy: Dict[str, int] = {}
        total_by_policy: Dict[str, int] = {}
        for (name, labels), (kind, value) in snapshot.samples.items():
            if kind == "histogram" or name not in (
                "queries_total",
                "queries_answered",
            ):
                continue
            policy = dict(labels).get("policy", "?")
            if name == "queries_total":
                total_by_policy[policy] = (
                    total_by_policy.get(policy, 0) + int(value)
                )
            else:
                answered_by_policy[policy] = (
                    answered_by_policy.get(policy, 0) + int(value)
                )
        for policy in sorted(total_by_policy):
            queries.append(
                QueryHealth(
                    policy=policy,
                    total=total_by_policy[policy],
                    answered=answered_by_policy.get(policy, 0),
                )
            )
        return cls(
            frames_offered=offered,
            frames_delivered=int(total("fabric_frames_delivered")),
            frames_executed=int(total("fabric_frames_executed")),
            frames_rejected=int(total("fabric_frames_rejected")),
            frames_lost=int(total("fabric_frames_dropped_loss")),
            frames_duplicated=int(total("fabric_frames_duplicated")),
            frames_reordered=int(total("fabric_frames_reordered")),
            impairment_offered=impairment_offered,
            nic_frames_received=int(total("nic_frames_received")),
            nic_frames_dropped=sum(drop_breakdown.values()),
            nic_writes_executed=int(total("nic_writes_executed")),
            nic_atomics_executed=int(total("nic_atomics_executed")),
            nic_drop_breakdown=drop_breakdown,
            mem_writes=int(total("mem_writes")),
            mem_atomics=int(total("mem_atomics")),
            mem_slot_overwrites=int(total("mem_slot_overwrites")),
            queries=queries,
            fanout_shards=int(total("query_fanout_shards_total")),
            fanout_shard_failures=int(
                total("query_fanout_shard_failures_total")
            ),
        )

    def to_dict(self) -> dict:
        """JSON-friendly flattening of the reading (rates included)."""
        return {
            "frames_offered": self.frames_offered,
            "frames_delivered": self.frames_delivered,
            "frames_executed": self.frames_executed,
            "frames_rejected": self.frames_rejected,
            "frames_lost": self.frames_lost,
            "frames_duplicated": self.frames_duplicated,
            "frames_reordered": self.frames_reordered,
            "loss_rate": self.loss_rate,
            "duplication_rate": self.duplication_rate,
            "reorder_rate": self.reorder_rate,
            "delivery_rate": self.delivery_rate,
            "fabric_nic_delta": self.fabric_nic_delta,
            "nic_frames_received": self.nic_frames_received,
            "nic_frames_dropped": self.nic_frames_dropped,
            "nic_drop_breakdown": dict(self.nic_drop_breakdown),
            "mem_writes": self.mem_writes,
            "mem_atomics": self.mem_atomics,
            "atomic_bypass_delta": self.atomic_bypass_delta,
            "mem_slot_overwrites": self.mem_slot_overwrites,
            "slot_overwrite_rate": self.slot_overwrite_rate,
            "fanout_shards": self.fanout_shards,
            "fanout_shard_failures": self.fanout_shard_failures,
            "shard_failure_rate": self.shard_failure_rate,
            "queries": {
                q.policy: {
                    "total": q.total,
                    "answered": q.answered,
                    "success_rate": q.success_rate,
                }
                for q in self.queries
            },
        }


def render_histogram(histogram: Histogram) -> str:
    """ASCII rendering of one histogram's buckets (empty buckets elided)."""
    lines = [
        f"count={histogram.count} mean={histogram.mean:.3g} "
        f"p50={histogram.quantile(0.5):.3g} p99={histogram.quantile(0.99):.3g}"
    ]
    counts = histogram.counts
    if not counts or not histogram.count:
        return lines[0]
    peak = max(counts)
    bounds = [f"<= {b:g}" for b in histogram.bounds] + ["> last"]
    for bound, count in zip(bounds, counts):
        if not count:
            continue
        bar = "#" * max(1, round(32 * count / peak))
        lines.append(f"  {bound:>12} {count:>8} {bar}")
    return "\n".join(lines)


def _merged_stage_histograms(registry: MetricsRegistry) -> List[Tuple[str, Histogram]]:
    """The per-stage latency histograms, sorted by stage name."""
    out = []
    for labels, metric in registry.samples("stage_seconds"):
        if metric.kind != "histogram" or not metric.count:
            continue
        out.append((labels.get("stage", "?"), metric))
    out.sort(key=lambda item: item[0])
    return out


def render_dashboard(
    registry: MetricsRegistry, node: Optional[str] = None
) -> str:
    """The operator-facing health snapshot the ``repro obs`` CLI prints.

    With ``node`` the dashboard covers only samples carrying that
    ``node=...`` label (one host's or switch's share of the pipeline);
    stage latency histograms are process-wide and are omitted then.
    """
    if node is not None:
        snapshot = registry.snapshot().filter_labels(node=node)
        health = PipelineHealth.from_snapshot(snapshot)
    else:
        health = PipelineHealth.from_registry(registry)
    lines: List[str] = []
    header = "== pipeline health ==" if node is None else (
        f"== pipeline health [node={node}] =="
    )
    lines.append(header)
    lines.append(
        f"frames offered        {health.frames_offered:>10}  "
        f"(at impairment layer: {health.impairment_offered})"
    )
    lines.append(f"frames delivered      {health.frames_delivered:>10}")
    lines.append(
        f"frames executed       {health.frames_executed:>10}  "
        f"rejected {health.frames_rejected}"
    )
    lines.append(
        f"frame loss rate       {health.loss_rate:>10.4f}  "
        f"({health.frames_lost} lost)"
    )
    lines.append(
        f"duplication rate      {health.duplication_rate:>10.4f}  "
        f"({health.frames_duplicated} duplicated)"
    )
    lines.append(
        f"reorder rate          {health.reorder_rate:>10.4f}  "
        f"({health.frames_reordered} held)"
    )
    lines.append(
        f"nic frames received   {health.nic_frames_received:>10}  "
        f"(fabric-vs-nic delta {health.fabric_nic_delta})"
    )
    drop_detail = ", ".join(
        f"{reason}={count}"
        for reason, count in health.nic_drop_breakdown.items()
        if count
    )
    lines.append(
        f"nic frames dropped    {health.nic_frames_dropped:>10}"
        + (f"  ({drop_detail})" if drop_detail else "")
    )
    lines.append(
        f"memory writes         {health.mem_writes:>10}  "
        f"slot overwrites {health.mem_slot_overwrites}"
    )
    lines.append(
        f"memory atomics        {health.mem_atomics:>10}  "
        f"(atomic bypass delta {health.atomic_bypass_delta})"
    )
    lines.append(f"slot overwrite rate   {health.slot_overwrite_rate:>10.4f}")
    if health.fanout_shards:
        lines.append(
            f"query fan-out shards  {health.fanout_shards:>10}  "
            f"failed {health.fanout_shard_failures} "
            f"(failure rate {health.shard_failure_rate:.4f})"
        )

    stage_histograms = [] if node is not None else (
        _merged_stage_histograms(registry)
    )
    if stage_histograms:
        lines.append("")
        lines.append("== per-stage latency (seconds) ==")
        for stage, histogram in stage_histograms:
            lines.append(f"[{stage}]")
            lines.append(render_histogram(histogram))

    lines.append("")
    lines.append("== query success rate ==")
    if health.queries:
        for query in health.queries:
            rate = (
                "n/a"
                if query.success_rate is None
                else f"{query.success_rate:.4f}"
            )
            lines.append(
                f"policy={query.policy:<14} total={query.total:<8} "
                f"answered={query.answered:<8} "
                f"success_rate={rate}"
            )
    else:
        lines.append("(no queries executed)")

    depth_hwm = (
        0 if node is not None else registry.total("fabric_queue_depth_hwm")
    )
    if depth_hwm:
        lines.append("")
        lines.append("== fabric queues ==")
        lines.append(f"queue depth high-water mark  {int(depth_hwm)}")
        flushes = int(registry.total("fabric_flushes"))
        lines.append(f"flushes                      {flushes}")
    return "\n".join(lines)
