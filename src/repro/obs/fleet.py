"""Fleet-wide metric views: per-node rows over node-labelled series.

PR 2's registry made the pipeline observable; this module makes the
*fleet* observable.  Components built inside
:meth:`MetricsRegistry.node_scope` carry a ``node`` label on every series
they create, so one registry holds many logical nodes -- the shape the
paper's collector fleet has (switches report into many collector NICs;
each is a node here).  One node's view is
``registry.snapshot().filter_labels(node=...)``.

- :func:`render_fleet` -- the ``repro obs fleet`` dashboard: one row per
  node with its NIC/memory/query health, plus unattributed and total
  rows, so a single sick collector is visible instead of averaged away;
- :func:`fleet_rows` -- the same rows as JSON-friendly dicts (bundles).
"""

from __future__ import annotations

from typing import List

from repro.obs.health import PipelineHealth
from repro.obs.metrics import MetricsSnapshot

#: Label series are namespaced by; :meth:`MetricsRegistry.node_scope` sets it.
NODE_LABEL = "node"


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
