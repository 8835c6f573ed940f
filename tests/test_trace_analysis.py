"""TraceAnalyzer: gap attribution, critical paths, completeness, rendering.

The analyzer's core promise is conservation: per-span self times (the
gap to the next event in logical order) sum exactly to the trace's
end-to-end duration, so critical-path percentages are honest shares of
wall-clock, not of some unrelated total.
"""

import math

import pytest

from repro.obs.trace_analysis import TraceAnalyzer
from repro.obs.tracing import Span, TraceRecord


def _span(seq, stage, span_id, parent_id=0, t=0.0, status="ok"):
    return Span(
        seq=seq,
        stage=stage,
        span_id=span_id,
        parent_id=parent_id,
        status=status,
        t=t,
    )


def _record(spans, trace_id=7, kind="append", **kwargs):
    record = TraceRecord(trace_id=trace_id, kind=kind, **kwargs)
    record.spans = list(spans)
    if spans:
        record.root_span_id = spans[0].span_id
        record.last_span_id = spans[-1].span_id
    return record


@pytest.fixture
def tree_record():
    """A two-branch tree with known timings (times in milliseconds).

    root(1)@0ms -> reserve(2)@1ms -> retry(3)@2ms
                -> write(4)@5ms -> deliver(5)@9ms
    Self times (gap to next event): root=1ms, reserve=1ms, retry=3ms,
    write=4ms, deliver=0.
    """
    return _record(
        [
            _span(1, "primitive.append", 1, 0, t=0.000),
            _span(2, "append.reserve", 2, 1, t=0.001),
            _span(3, "append.reserve.retry", 3, 2, t=0.002, status="retry"),
            _span(4, "rdma.write", 4, 1, t=0.005),
            _span(5, "fabric.deliver", 5, 4, t=0.009),
        ]
    )


def test_self_times_sum_to_duration(tree_record):
    analysis = TraceAnalyzer().analyze(tree_record)
    total_self = sum(t.self_time for t in analysis.timings)
    assert math.isclose(total_self, analysis.duration)
    assert math.isclose(analysis.duration, 0.009)


def test_gap_attribution_per_span(tree_record):
    analysis = TraceAnalyzer().analyze(tree_record)
    by_id = {t.span.span_id: t for t in analysis.timings}
    assert math.isclose(by_id[1].self_time, 0.001)
    assert math.isclose(by_id[2].self_time, 0.001)
    assert math.isclose(by_id[3].self_time, 0.003)
    assert math.isclose(by_id[4].self_time, 0.004)
    assert by_id[5].self_time == 0.0
    # Offsets are relative to the first event.
    assert by_id[1].offset == 0.0
    assert math.isclose(by_id[4].offset, 0.005)


def test_inclusive_time_and_depth(tree_record):
    analysis = TraceAnalyzer().analyze(tree_record)
    by_id = {t.span.span_id: t for t in analysis.timings}
    # Root includes everything.
    assert math.isclose(by_id[1].inclusive_time, analysis.duration)
    # reserve subtree = reserve + retry self times.
    assert math.isclose(by_id[2].inclusive_time, 0.004)
    # write subtree = write + deliver.
    assert math.isclose(by_id[4].inclusive_time, 0.004)
    assert by_id[1].depth == 0
    assert by_id[2].depth == 1
    assert by_id[3].depth == 2


def test_critical_path_descends_heaviest_child():
    # Make the write branch strictly heavier than the reserve branch.
    record = _record(
        [
            _span(1, "primitive.append", 1, 0, t=0.000),
            _span(2, "append.reserve", 2, 1, t=0.001),
            _span(3, "rdma.write", 3, 1, t=0.002),
            _span(4, "fabric.deliver", 4, 3, t=0.010),
        ]
    )
    analysis = TraceAnalyzer().analyze(record)
    stages = [t.span.stage for t in analysis.critical_path]
    assert stages == ["primitive.append", "rdma.write", "fabric.deliver"]
    # rdma.write owns the 8ms gap: it is the dominant contributor.
    assert analysis.dominant_stage == "rdma.write"


def test_stage_aggregates_conserve_wall_clock(tree_record):
    analysis = TraceAnalyzer().analyze(tree_record)
    assert math.isclose(analysis.by_stage["append.reserve.retry"], 0.003)
    assert math.isclose(sum(analysis.by_stage.values()), analysis.duration)


def test_complete_tree_validates(tree_record):
    analysis = TraceAnalyzer().analyze(tree_record)
    assert analysis.complete
    assert analysis.problems == []


def test_unresolved_parent_is_a_problem():
    record = _record(
        [
            _span(1, "root", 1, 0),
            _span(2, "orphan", 2, 99),
        ]
    )
    analysis = TraceAnalyzer().analyze(record)
    assert not analysis.complete
    assert any("unresolved parent 99" in p for p in analysis.problems)
    assert any("unreachable" in p for p in analysis.problems)


def test_duplicate_span_ids_are_a_problem():
    record = _record(
        [
            _span(1, "root", 1, 0),
            _span(2, "twin", 1, 0),
        ]
    )
    analysis = TraceAnalyzer().analyze(record)
    assert "duplicate span ids" in analysis.problems


def test_empty_record_reports_no_spans():
    analysis = TraceAnalyzer().analyze(_record([]))
    assert not analysis.complete
    assert analysis.problems == ["no spans recorded"]
    assert analysis.dominant is None
    assert analysis.dominant_stage == ""


def test_waterfall_renders_rows(tree_record):
    text = TraceAnalyzer().render_waterfall(tree_record)
    assert text.splitlines()[0].startswith("trace 7 kind=append")
    assert "append.reserve.retry" in text
    assert "!retry" in text
    assert "#" in text


def test_waterfall_surfaces_problems():
    record = _record([_span(1, "root", 1, 0), _span(2, "orphan", 2, 99)])
    text = TraceAnalyzer().render_waterfall(record)
    assert "! span 2 (orphan) has unresolved parent 99" in text


def test_critical_path_rendering_marks_dominant(tree_record):
    text = TraceAnalyzer().render_critical_path(tree_record)
    assert "critical path" in text
    assert "<-- dominant" in text
    assert text.splitlines()[-1].strip().startswith("dominant stage:")


def test_summarize_is_json_friendly(tree_record):
    import json

    summary = TraceAnalyzer().summarize(tree_record)
    assert summary["trace_id"] == 7
    assert summary["complete"] is True
    assert summary["dominant_stage"]
    assert summary["critical_path"][0]["stage"] == "primitive.append"
    assert math.isclose(
        sum(summary["by_stage"].values()), summary["duration_seconds"]
    )
    json.dumps(summary)  # must not raise
