"""Critical-path and waterfall analysis over recorded span trees.

A sealed :class:`~repro.obs.tracing.TraceRecord` says *what happened*;
this module answers *where the time went*.  The model suits how this
system records spans: each span marks an **event** (frame crafted,
impairment applied, frame delivered, read resolved) rather than an
interval, so a span's *self time* is the gap between it and the next
event on the trace (in logical-clock order).  Gap attribution has one
attractive property: self times sum exactly to the trace's end-to-end
wall-clock duration -- nothing double-counted, nothing unattributed.

On top of self time, the analyzer reconstructs the causal tree
(``parent_id`` links) and computes:

- **inclusive time** per span -- self time plus all descendants';
- the **critical path** -- the root-to-leaf walk that always descends
  into the child with the largest inclusive time, i.e. the chain of
  stages that actually bounded end-to-end latency;
- the **dominant stage** -- the single largest self-time contributor on
  that path, which is the "which stage was slow?" answer the
  ``repro obs trace --critical-path`` CLI prints;
- per-stage aggregates for fleet dashboards.

It also validates **completeness**: every tail-retained trace is
supposed to hold a full root-to-leaf story (unique span ids, every
parent resolvable, every span reachable from the root) -- the invariant
the impairment/eviction tests assert before trusting an analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.tracing import Span, TraceRecord


@dataclass(frozen=True)
class SpanTiming:
    """One span plus its attributed timings."""

    span: Span
    #: Gap to the next event on the trace (seconds); 0 for the last.
    self_time: float
    #: Self time plus all causal descendants' self times.
    inclusive_time: float
    #: Depth in the causal tree (root = 0).
    depth: int
    #: Offset of this span from the trace's first event (seconds).
    offset: float


@dataclass
class TraceAnalysis:
    """The full analysis of one trace (see :class:`TraceAnalyzer`)."""

    trace_id: int
    kind: str
    duration: float
    timings: List[SpanTiming] = field(default_factory=list)
    #: Root-to-leaf chain of the latency-bounding spans.
    critical_path: List[SpanTiming] = field(default_factory=list)
    #: Self-time seconds attributed to each stage name.
    by_stage: Dict[str, float] = field(default_factory=dict)
    #: Structural problems found (empty = complete causal tree).
    problems: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """True when the causal tree is structurally sound."""
        return not self.problems

    @property
    def dominant(self) -> Optional[SpanTiming]:
        """The largest self-time span on the critical path (None if empty)."""
        if not self.critical_path:
            return None
        return max(self.critical_path, key=lambda t: t.self_time)

    @property
    def dominant_stage(self) -> str:
        """Stage name of :attr:`dominant` ("" when there is none)."""
        timing = self.dominant
        return "" if timing is None else timing.span.stage


class TraceAnalyzer:
    """Computes :class:`TraceAnalysis` from :class:`TraceRecord` trees."""

    def analyze(self, record: TraceRecord) -> TraceAnalysis:
        """Analyze one record (works on live, sealed or kept records)."""
        analysis = TraceAnalysis(
            trace_id=record.trace_id,
            kind=record.kind,
            duration=record.duration,
        )
        spans = sorted(record.spans, key=lambda s: s.seq)
        if not spans:
            analysis.problems.append("no spans recorded")
            return analysis
        analysis.problems.extend(self._validate(record, spans))

        # Gap attribution in logical order: a span owns the wall-clock
        # gap until the next event; the last event owns nothing.
        start = min(span.t for span in spans)
        self_time: Dict[int, float] = {}
        for current, nxt in zip(spans, spans[1:]):
            self_time[current.span_id] = max(0.0, nxt.t - current.t)
        self_time[spans[-1].span_id] = 0.0

        known = {span.span_id for span in spans}
        children: Dict[int, List[Span]] = {}
        roots: List[Span] = []
        for span in spans:
            if span.parent_id and span.parent_id in known:
                children.setdefault(span.parent_id, []).append(span)
            else:
                roots.append(span)

        inclusive: Dict[int, float] = {}

        def fill_inclusive(span: Span) -> float:
            total = self_time.get(span.span_id, 0.0)
            for child in children.get(span.span_id, ()):
                total += fill_inclusive(child)
            inclusive[span.span_id] = total
            return total

        depth: Dict[int, int] = {}

        def fill_depth(span: Span, level: int) -> None:
            depth[span.span_id] = level
            for child in children.get(span.span_id, ()):
                fill_depth(child, level + 1)

        for root in roots:
            fill_inclusive(root)
            fill_depth(root, 0)

        timing_by_id: Dict[int, SpanTiming] = {}
        for span in spans:
            timing = SpanTiming(
                span=span,
                self_time=self_time.get(span.span_id, 0.0),
                inclusive_time=inclusive.get(span.span_id, 0.0),
                depth=depth.get(span.span_id, 0),
                offset=max(0.0, span.t - start),
            )
            timing_by_id[span.span_id] = timing
            analysis.timings.append(timing)
            stage_total = analysis.by_stage.get(span.stage, 0.0)
            analysis.by_stage[span.stage] = stage_total + timing.self_time

        # Critical path: from the heaviest root, always descend into the
        # child with the largest inclusive time.
        if roots:
            cursor = max(roots, key=lambda s: inclusive.get(s.span_id, 0.0))
            while cursor is not None:
                analysis.critical_path.append(timing_by_id[cursor.span_id])
                kids = children.get(cursor.span_id)
                cursor = (
                    max(kids, key=lambda s: inclusive.get(s.span_id, 0.0))
                    if kids
                    else None
                )
        return analysis

    def _validate(self, record: TraceRecord, spans: List[Span]) -> List[str]:
        problems: List[str] = []
        ids = [span.span_id for span in spans]
        known = set(ids)
        if len(known) != len(ids):
            problems.append("duplicate span ids")
        for span in spans:
            if span.parent_id and span.parent_id not in known:
                problems.append(
                    f"span {span.span_id} ({span.stage}) has unresolved "
                    f"parent {span.parent_id}"
                )
        # Reachability: every span must trace back to the root.
        root_id = record.root_span_id or (ids[0] if ids else 0)
        reachable = {root_id}
        frontier = [root_id]
        children: Dict[int, List[int]] = {}
        for span in spans:
            children.setdefault(span.parent_id, []).append(span.span_id)
        while frontier:
            node = frontier.pop()
            for child in children.get(node, ()):
                if child not in reachable:
                    reachable.add(child)
                    frontier.append(child)
        orphans = known - reachable
        if orphans:
            problems.append(
                f"{len(orphans)} span(s) unreachable from root {root_id}"
            )
        return problems

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def render_waterfall(self, record: TraceRecord) -> str:
        """An indented waterfall: offset, self time, and a duration bar."""
        width = 40
        analysis = self.analyze(record)
        head = f"trace {record.trace_id} kind={record.kind}"
        if record.key:
            head += f" key={record.key}"
        head += f" duration={analysis.duration * 1e6:.1f}us"
        if record.status != "ok":
            head += f" status={record.status}"
        if record.keep_reasons:
            head += f" kept[{','.join(record.keep_reasons)}]"
        lines = [head]
        scale = analysis.duration or 1.0
        for timing in analysis.timings:
            offset_cols = int(round((timing.offset / scale) * width))
            bar_cols = int(round((timing.self_time / scale) * width))
            bar = " " * min(offset_cols, width) + "#" * max(
                bar_cols, 1 if timing.self_time > 0 else 0
            )
            label = "  " * timing.depth + timing.span.stage
            if timing.span.detail:
                label += f" ({timing.span.detail})"
            if timing.span.status != "ok":
                label += f" !{timing.span.status}"
            lines.append(
                f"  {timing.offset * 1e6:9.1f}us "
                f"{timing.self_time * 1e6:9.1f}us |{bar:<{width}}| {label}"
            )
        if not analysis.complete:
            for problem in analysis.problems:
                lines.append(f"  ! {problem}")
        return "\n".join(lines)

    def render_critical_path(self, record: TraceRecord) -> str:
        """The critical path with per-hop self time and % of end-to-end."""
        analysis = self.analyze(record)
        total = analysis.duration or 1.0
        lines = [
            f"trace {record.trace_id} kind={record.kind} "
            f"critical path ({analysis.duration * 1e6:.1f}us end-to-end):"
        ]
        for timing in analysis.critical_path:
            share = 100.0 * timing.self_time / total
            label = timing.span.stage
            if timing.span.detail:
                label += f" ({timing.span.detail})"
            marker = " <-- dominant" if timing is analysis.dominant else ""
            lines.append(
                f"  {timing.self_time * 1e6:9.1f}us {share:5.1f}%  {label}{marker}"
            )
        if analysis.dominant is not None:
            lines.append(f"  dominant stage: {analysis.dominant_stage}")
        if not analysis.complete:
            for problem in analysis.problems:
                lines.append(f"  ! {problem}")
        return "\n".join(lines)

    def summarize(self, record: TraceRecord) -> Dict[str, object]:
        """JSON-friendly critical-path summary (postmortem bundles)."""
        analysis = self.analyze(record)
        return {
            "trace_id": analysis.trace_id,
            "kind": analysis.kind,
            "duration_seconds": analysis.duration,
            "complete": analysis.complete,
            "problems": list(analysis.problems),
            "dominant_stage": analysis.dominant_stage,
            "critical_path": [
                {
                    "stage": t.span.stage,
                    "detail": t.span.detail,
                    "status": t.span.status,
                    "self_seconds": t.self_time,
                }
                for t in analysis.critical_path
            ],
            "by_stage": dict(analysis.by_stage),
        }
