"""Fleet-wide metric aggregation: per-node views over node-labelled series.

PR 2's registry made the pipeline observable; this module makes the
*fleet* observable.  Components built inside
:meth:`MetricsRegistry.node_scope` carry a ``node`` label on every series
they create, and :class:`FleetRegistry` groups those series back into
per-node sub-snapshots -- one registry, many logical nodes, the shape the
paper's collector fleet has (switches report into many collector NICs;
each is a node here).

- :meth:`FleetRegistry.snapshot` -- one merged snapshot across every
  member registry (multi-registry setups sum counters on collision, so a
  self-telemetry meta-registry can be folded in);
- :meth:`FleetRegistry.node_snapshot` / :meth:`FleetRegistry.node_health`
  -- one node's series / reconciled :class:`PipelineHealth`;
- :func:`render_fleet` -- the ``repro obs fleet`` dashboard: one row per
  node with its NIC/memory/query health, plus unattributed and total
  rows, so a single sick collector is visible instead of averaged away.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.health import PipelineHealth
from repro.obs.metrics import Labels, MetricsRegistry, MetricsSnapshot

#: Label series are namespaced by; :meth:`MetricsRegistry.node_scope` sets it.
NODE_LABEL = "node"


def merge_snapshots(snapshots: List[MetricsSnapshot]) -> MetricsSnapshot:
    """Fold several snapshots into one.

    On ``(name, labels)`` collisions counters add, gauges keep the later
    snapshot's reading, and histograms with identical bounds add their
    buckets -- the same aggregation rules
    :meth:`MetricsRegistry.total` applies within one registry.
    """
    samples: Dict[Tuple[str, Labels], tuple] = {}
    help_texts: Dict[str, str] = {}
    for snapshot in snapshots:
        for name, text in snapshot.help_texts.items():
            help_texts.setdefault(name, text)
        for key, (kind, value) in snapshot.samples.items():
            existing = samples.get(key)
            if existing is None or existing[0] != kind or kind == "gauge":
                samples[key] = (kind, value)
            elif kind == "histogram":
                counts0, sum0, bounds0 = existing[1]
                counts, total, bounds = value
                if bounds != bounds0:
                    samples[key] = (kind, value)
                else:
                    samples[key] = (
                        kind,
                        (
                            tuple(a + b for a, b in zip(counts0, counts)),
                            sum0 + total,
                            bounds0,
                        ),
                    )
            else:
                samples[key] = (kind, existing[1] + value)
    return MetricsSnapshot(samples, help_texts=help_texts)


class FleetRegistry:
    """Per-node aggregation over one or more metric registries.

    Parameters
    ----------
    registry:
        The first member registry; defaults to the process registry.
        :meth:`add_registry` folds in more (e.g. the self-telemetry
        exporter's private meta-registry, or registries deserialised
        from other processes' snapshots via :meth:`add_snapshot`).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        if registry is None:
            # Imported lazily: repro.obs re-exports this module at package
            # import time, so the default can't be resolved at module level.
            from repro import obs

            registry = obs.get_registry()
        self._registries: List[MetricsRegistry] = [registry]
        self._static: List[MetricsSnapshot] = []

    def __repr__(self) -> str:
        return (
            f"FleetRegistry(registries={len(self._registries)}, "
            f"static_snapshots={len(self._static)}, nodes={self.nodes()})"
        )

    def add_registry(self, registry: MetricsRegistry) -> None:
        """Fold another live registry into every future snapshot."""
        self._registries.append(registry)

    def add_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold a static (e.g. remotely captured) snapshot into the fleet."""
        self._static.append(snapshot)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """One merged snapshot across all member registries/snapshots."""
        return merge_snapshots(
            [registry.snapshot() for registry in self._registries]
            + self._static
        )

    def nodes(self) -> List[str]:
        """Every node label value present in the fleet, sorted."""
        return self.snapshot().label_values(NODE_LABEL)

    def node_snapshot(self, node: str) -> MetricsSnapshot:
        """The sub-snapshot of series attributed to one node."""
        return self.snapshot().filter_labels(**{NODE_LABEL: node})

    def node_health(self, node: str) -> PipelineHealth:
        """One node's reconciled pipeline-health reading."""
        return PipelineHealth.from_snapshot(self.node_snapshot(node))

    def node_total(self, name: str, node: str) -> float:
        """One node's family-wide total for a counter/gauge family."""
        return self.snapshot().total(name, **{NODE_LABEL: node})

    def unattributed_snapshot(self) -> MetricsSnapshot:
        """Series carrying no node label (shared fabric, global gauges)."""
        full = self.snapshot()
        samples = {
            key: entry
            for key, entry in full.samples.items()
            if NODE_LABEL not in dict(key[1])
        }
        names = {name for name, _labels in samples}
        return MetricsSnapshot(
            samples,
            help_texts={
                name: text
                for name, text in full.help_texts.items()
                if name in names
            },
        )


def _fleet_row(label: str, snapshot: MetricsSnapshot) -> str:
    """One dashboard row: a node's key health figures."""
    health = PipelineHealth.from_snapshot(snapshot)
    answered = sum(q.answered for q in health.queries)
    totals = sum(q.total for q in health.queries)
    success = f"{answered / totals:.3f}" if totals else "n/a"
    return (
        f"{label:<18} {len(snapshot):>7} {health.nic_frames_received:>10} "
        f"{health.nic_frames_dropped:>9} {health.mem_writes:>11} "
        f"{health.mem_slot_overwrites:>11} {success:>8}"
    )


def render_fleet(snapshot: MetricsSnapshot) -> str:
    """Render the per-node fleet table from one merged snapshot.

    One row per node plus ``(unattributed)`` (series without a node
    label: shared fabrics, global alert gauges) and ``(fleet total)``.
    """
    nodes = snapshot.label_values(NODE_LABEL)
    lines = [
        f"== fleet ({len(nodes)} nodes, {len(snapshot)} series) ==",
        f"{'node':<18} {'series':>7} {'nic_recv':>10} {'nic_drop':>9} "
        f"{'mem_writes':>11} {'overwrites':>11} {'queries':>8}",
    ]
    for node in nodes:
        lines.append(
            _fleet_row(node, snapshot.filter_labels(**{NODE_LABEL: node}))
        )
    unattributed = MetricsSnapshot(
        {
            key: entry
            for key, entry in snapshot.samples.items()
            if NODE_LABEL not in dict(key[1])
        },
        help_texts=dict(snapshot.help_texts),
    )
    if len(unattributed):
        lines.append(_fleet_row("(unattributed)", unattributed))
    lines.append(_fleet_row("(fleet total)", snapshot))
    return "\n".join(lines)


def fleet_rows(snapshot: MetricsSnapshot) -> List[dict]:
    """JSON-friendly per-node health rows (the ``--format json`` twin)."""
    rows = []
    for node in snapshot.label_values(NODE_LABEL):
        sub = snapshot.filter_labels(**{NODE_LABEL: node})
        row = {"node": node, "series": len(sub)}
        row.update(PipelineHealth.from_snapshot(sub).to_dict())
        rows.append(row)
    return rows
