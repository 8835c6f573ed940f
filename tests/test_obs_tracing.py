"""Tests for repro.obs.tracing: span ordering, frame binding, eviction."""

import pytest

from repro import obs
from repro.fabric.fabric import BufferedFabric, InlineFabric
from repro.fabric.impaired import ImpairedFabric
from repro.obs.trace_analysis import TraceAnalyzer
from repro.obs.tracing import (
    EVICTED_TRACE,
    NULL_TRACER,
    UNSAMPLED_TRACE,
    Tracer,
)
from repro.primitives import AppendStore, SketchStore, SwitchSketch

from .test_fabric import RecordingPort
from .test_read_columnar import Tap


def _fresh_obs(**tracer_kwargs):
    """Install a fresh registry+tracer; returns (registry, tracer, restore)."""
    registry = obs.MetricsRegistry()
    previous_registry = obs.set_registry(registry)
    tracer = obs.Tracer(**tracer_kwargs)  # after set_registry: its gauges land here
    previous_tracer = obs.set_tracer(tracer)

    def restore():
        obs.set_registry(previous_registry)
        obs.set_tracer(previous_tracer)

    return registry, tracer, restore


class TestTracerBasics:
    def test_spans_carry_monotonic_sequence(self):
        tracer = Tracer()
        a = tracer.begin("report", key="flow-a")
        b = tracer.begin("report", key="flow-b")
        tracer.span(a, "stage.one")
        tracer.span(b, "stage.one")
        tracer.span(a, "stage.two", detail="x")
        record = tracer.trace(a)
        assert record.stages == ("stage.one", "stage.two")
        seqs = [span.seq for span in record.spans]
        assert seqs == sorted(seqs)
        # The interleaved span on b sits between a's two spans.
        assert record.spans[0].seq < tracer.trace(b).spans[0].seq
        assert tracer.trace(b).spans[0].seq < record.spans[1].seq

    def test_frame_binding_routes_spans(self):
        tracer = Tracer()
        trace_id = tracer.begin("report")
        tracer.bind_frame(b"frame-1", trace_id)
        tracer.frame_span(b"frame-1", "nic.ingest", "executed")
        tracer.frame_span(b"unknown", "nic.ingest")  # silently ignored
        record = tracer.trace_for_frame(b"frame-1")
        assert record.trace_id == trace_id
        assert record.stages == ("nic.ingest",)

    def test_span_on_unknown_trace_is_ignored(self):
        tracer = Tracer()
        tracer.span(999, "stage")
        assert tracer.spans_recorded == 0

    def test_render_contains_key_and_stages(self):
        tracer = Tracer()
        trace_id = tracer.begin("switch_report", key="(1, 2)")
        tracer.span(trace_id, "switch.report", "copies=2")
        text = tracer.trace(trace_id).render()
        assert "kind=switch_report" in text
        assert "key=(1, 2)" in text
        assert "switch.report (copies=2)" in text

    def test_eviction_unbinds_frames(self):
        tracer = Tracer(max_traces=2)
        first = tracer.begin("report")
        tracer.bind_frame(b"old-frame", first)
        tracer.begin("report")
        tracer.begin("report")  # evicts `first`
        assert tracer.trace(first) is EVICTED_TRACE
        assert tracer.trace_for_frame(b"old-frame") is None
        tracer.frame_span(b"old-frame", "late.stage")  # must not raise
        assert tracer.traces_evicted == 1
        assert len(tracer.traces()) == 2

    def test_evicted_marker_is_deterministic_across_wraparound(self):
        tracer = Tracer(max_traces=2)
        ids = [tracer.begin("report") for _ in range(50)]
        # However far the ring wrapped, every issued-but-evicted id maps
        # to the shared marker -- never a KeyError, never None.
        for trace_id in ids[:-2]:
            assert tracer.trace(trace_id) is EVICTED_TRACE
        for trace_id in ids[-2:]:
            record = tracer.trace(trace_id)
            assert record is not EVICTED_TRACE
            assert record.trace_id == trace_id
        assert EVICTED_TRACE.kind == "evicted"
        assert "evicted" in EVICTED_TRACE.render()

    def test_never_issued_ids_stay_none(self):
        tracer = Tracer(max_traces=2)
        assert tracer.trace(0) is None
        assert tracer.trace(1) is None  # not issued yet
        issued = tracer.begin("report")
        assert tracer.trace(issued) is not None
        assert tracer.trace(issued + 1) is None  # beyond the id watermark

    def test_spans_on_evicted_traces_are_ignored(self):
        tracer = Tracer(max_traces=1)
        first = tracer.begin("report")
        tracer.begin("report")  # evicts `first`
        tracer.span(first, "late.stage")  # must not raise or record
        assert tracer.spans_recorded == 0
        assert EVICTED_TRACE.spans == []

    def test_traces_filter_by_kind(self):
        tracer = Tracer()
        tracer.begin("report")
        tracer.begin("query")
        assert len(tracer.traces()) == 2
        assert [r.kind for r in tracer.traces(kind="query")] == ["query"]

    def test_null_tracer_is_inert(self):
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.begin("report") == 0
        NULL_TRACER.bind_frame(b"f", 0)
        NULL_TRACER.span(0, "stage")
        NULL_TRACER.frame_span(b"f", "stage")
        assert NULL_TRACER.trace(0) is None
        assert NULL_TRACER.trace_for_frame(b"f") is None
        assert NULL_TRACER.traces() == []


class TestSpanOrderingUnderReordering:
    def test_adjacent_swap_orders_spans_after_newer_frame(self):
        """With reordering=1.0 the first frame is held and must acquire its
        delivery span *after* the frame that overtook it."""
        _registry, tracer, restore = _fresh_obs()
        try:
            fabric = ImpairedFabric(InlineFabric(), reordering=1.0, seed=0)
            fabric.attach(1, RecordingPort())
            held_frame, overtaking_frame = b"frame-A", b"frame-B"
            trace_a = tracer.begin("report", key="A")
            trace_b = tracer.begin("report", key="B")
            tracer.bind_frame(held_frame, trace_a)
            tracer.bind_frame(overtaking_frame, trace_b)

            assert fabric.send(1, held_frame) is None  # held for reorder
            fabric.send(1, overtaking_frame)  # overtakes, releases A after

            record_a = tracer.trace(trace_a)
            record_b = tracer.trace(trace_b)
            assert record_a.stages == (
                "fabric.impair",  # held:reorder
                "fabric.impair",  # released:reorder
                "fabric.deliver",
            )
            assert [s.detail for s in record_a.spans[:2]] == [
                "held:reorder",
                "released:reorder",
            ]
            assert record_b.stages == ("fabric.deliver",)
            deliver_a = record_a.spans[-1].seq
            deliver_b = record_b.spans[-1].seq
            assert deliver_b < deliver_a  # B landed first: adjacent swap
        finally:
            restore()

    def test_held_frame_released_by_flush_is_traced(self):
        _registry, tracer, restore = _fresh_obs()
        try:
            fabric = ImpairedFabric(InlineFabric(), reordering=1.0, seed=0)
            fabric.attach(1, RecordingPort())
            trace_id = tracer.begin("report")
            tracer.bind_frame(b"only-frame", trace_id)
            assert fabric.send(1, b"only-frame") is None
            assert fabric.pending() == 1
            fabric.flush()
            record = tracer.trace(trace_id)
            assert record.stages[-1] == "fabric.deliver"
        finally:
            restore()

    def test_duplicate_frames_share_one_trace(self):
        _registry, tracer, restore = _fresh_obs()
        try:
            fabric = ImpairedFabric(InlineFabric(), duplication=1.0, seed=0)
            port = RecordingPort()
            fabric.attach(1, port)
            trace_id = tracer.begin("report")
            tracer.bind_frame(b"dup-frame", trace_id)
            fabric.send(1, b"dup-frame")
            assert port.frames == [b"dup-frame", b"dup-frame"]
            record = tracer.trace(trace_id)
            # offered once, duplicated once, delivered twice -- all on
            # the same trace because a duplicate IS the same report copy.
            assert record.stages.count("fabric.deliver") == 2
            assert "duplicated" in [s.detail for s in record.spans]
        finally:
            restore()

    def test_lost_frame_records_drop_span(self):
        _registry, tracer, restore = _fresh_obs()
        try:
            fabric = ImpairedFabric(InlineFabric(), loss=1.0, seed=0)
            fabric.attach(1, RecordingPort())
            trace_id = tracer.begin("report")
            tracer.bind_frame(b"doomed", trace_id)
            assert fabric.send(1, b"doomed") is False
            record = tracer.trace(trace_id)
            assert record.stages == ("fabric.impair",)
            assert record.spans[0].detail == "dropped:loss"
        finally:
            restore()


class TestSamplingAndTailRetention:
    def test_head_sampling_is_deterministic_and_roughly_calibrated(self):
        tracer = Tracer(sample_rate=0.25)
        verdicts = [tracer.sampled(tid) for tid in range(1, 2001)]
        assert verdicts == [tracer.sampled(tid) for tid in range(1, 2001)]
        fraction = sum(verdicts) / len(verdicts)
        assert 0.15 < fraction < 0.35

    def test_unsampled_traces_record_nothing_but_stay_identifiable(self):
        tracer = Tracer(sample_rate=0.0)
        trace_id = tracer.begin("report", key="dropped")
        tracer.span(trace_id, "stage.one")
        tracer.bind_frame(b"frame", trace_id)
        assert tracer.spans_recorded == 0
        assert tracer.traces() == []
        assert tracer.traces_sampled_out == 1
        assert tracer.trace(trace_id) is UNSAMPLED_TRACE
        assert UNSAMPLED_TRACE.kind == "unsampled"

    def test_rate_bounds_are_exact(self):
        always = Tracer(sample_rate=1.0)
        never = Tracer(sample_rate=0.0)
        assert all(always.sampled(tid) for tid in range(1, 100))
        assert not any(never.sampled(tid) for tid in range(1, 100))

    def test_non_ok_status_tail_retains_the_sealed_trace(self):
        tracer = Tracer()
        trace_id = tracer.begin("append")
        tracer.span(trace_id, "append.reserve")
        tracer.span(trace_id, "append.reserve.retry", status="retry")
        tracer.end(trace_id)
        record = tracer.trace(trace_id)
        assert record.sealed
        assert "status:retry" in record.keep_reasons
        assert record in tracer.kept()
        # Clean traces seal without being retained.
        clean = tracer.begin("append")
        tracer.span(clean, "append.reserve")
        tracer.end(clean)
        assert tracer.trace(clean) not in tracer.kept()

    def test_keep_live_tags_inflight_traces(self):
        tracer = Tracer()
        first = tracer.begin("report")
        tracer.span(first, "stage.one")
        done = tracer.begin("report")
        tracer.end(done)  # sealed before the keep: not tagged
        assert tracer.keep_live("slo:drop-rate") >= 1
        tracer.end(first)
        assert "slo:drop-rate" in tracer.trace(first).keep_reasons
        assert tracer.trace(first) in tracer.kept()
        assert "slo:drop-rate" not in tracer.trace(done).keep_reasons

    def test_kept_is_bounded_by_max_kept(self):
        tracer = Tracer(max_kept=3)
        ids = []
        for i in range(6):
            trace_id = tracer.begin("report", key=f"k{i}")
            tracer.span(trace_id, "stage", status="error")
            tracer.end(trace_id)
            ids.append(trace_id)
        kept = tracer.kept()
        assert len(kept) == 3
        assert [r.trace_id for r in kept] == ids[-3:]

    def test_bindings_gauge_returns_to_zero(self):
        registry, tracer, restore = _fresh_obs()
        try:
            gauge = registry.gauge("tracer_bindings_live")
            fabric = ImpairedFabric(InlineFabric(), loss=1.0, seed=0)
            fabric.attach(1, RecordingPort())
            delivered = tracer.begin("report")
            tracer.bind_frame(b"ok-frame", delivered)
            assert tracer.bindings_live == 1
            assert gauge.value == 1
            lossless = ImpairedFabric(InlineFabric(), seed=0)
            lossless.attach(1, RecordingPort())
            lossless.send(1, b"ok-frame")
            assert tracer.bindings_live == 0
            # A lost frame's binding is released by the drop span too.
            doomed = tracer.begin("report")
            tracer.bind_frame(b"doomed", doomed)
            fabric.send(1, b"doomed")
            assert tracer.bindings_live == 0
            assert gauge.value == 0
        finally:
            restore()


def _tap_call_shapes(fabric):
    """Tap every endpoint and the sender-side entries of ``fabric``;
    returns a reader of the call counts, by shape."""
    taps = []
    for endpoint_id in fabric.endpoint_ids():
        taps.append(Tap(fabric.port(endpoint_id)))
        fabric.rebind(endpoint_id, taps[-1])
    calls = {"send": 0, "send_batch": 0}
    for name in calls:

        def counted(*args, _name=name, _entry=getattr(fabric, name)):
            calls[_name] += 1
            return _entry(*args)

        setattr(fabric, name, counted)
    return lambda: dict(
        calls,
        ingest_batch=sum(tap.batches for tap in taps),
        frames_ingested=sum(len(tap.requests) for tap in taps),
    )


def _values(view):
    return {name: getattr(view, name) for name, *_ in view.FIELDS}


_PARITY_FABRICS = {
    "in_process": lambda: None,
    "inline": InlineFabric,
    "buffered": lambda: BufferedFabric(flush_threshold=7),
    "impaired": lambda: ImpairedFabric(
        BufferedFabric(flush_threshold=7),
        loss=0.1, duplication=0.1, reordering=0.1, seed=11,
    ),
}


def _put_many(fabric):
    from repro.collector.store import DartStore
    from repro.core.config import DartConfig

    config = DartConfig(slots_per_collector=256, num_collectors=2, redundancy=2, seed=3)
    store = DartStore(config, packet_level=fabric is not None, fabric=fabric)
    items = [(("flow", i), bytes([i]) * 4) for i in range(60)]
    return lambda: store.put_many(items), list(store.cluster)


def _increment_many(fabric):
    store = SketchStore(cells_per_row=64, rows=2, fabric=fabric)
    items = [(f"flow-{i % 17}", 1 + i % 3) for i in range(50)]
    return lambda: store.translator.increment_many(items), [store]


def _merge(fabric):
    store = SketchStore(cells_per_row=64, rows=2, fabric=fabric)
    sketch = SwitchSketch(cells_per_row=64, rows=2)
    for i in range(50):
        sketch.update(f"flow-{i % 17}", 1 + i % 3)
    return lambda: store.merger().merge(sketch.cells), [store]


def _append_many(fabric):
    store = AppendStore(capacity=64, record_bytes=16, fabric=fabric)
    writer = store.register_writer(0)
    return lambda: writer.append_many([b"rec-%03d" % i for i in range(40)]), [store]


#: Every batch entry over every fabric (only DartStore runs in-process).
_PARITY_CASES = [
    (build, fabric_name)
    for build in (_put_many, _increment_many, _merge, _append_many)
    for fabric_name in _PARITY_FABRICS
    if fabric_name != "in_process" or build is _put_many
]


class TestStoreBatchTracing:
    @pytest.mark.parametrize(
        "build, fabric_name",
        _PARITY_CASES,
        ids=[f"{build.__name__[1:]}-{name}" for build, name in _PARITY_CASES],
    )
    def test_watching_does_not_steer_the_batch(self, build, fabric_name):
        """A batch entry runs the same body -- same bytes in memory, same
        counters, same calls in the same shapes -- with no tracer, with
        one that samples nothing and with the default ``Tracer()``."""
        seen = {}
        for watcher in ("none", "unsampled", "default"):
            previous_registry = obs.set_registry(obs.MetricsRegistry())
            tracer = {
                "none": lambda: NULL_TRACER,
                "unsampled": lambda: obs.Tracer(sample_rate=0.0),
                "default": obs.Tracer,
            }[watcher]()
            previous_tracer = obs.set_tracer(tracer)
            try:
                fabric = _PARITY_FABRICS[fabric_name]()
                run, hosts = build(fabric)
                shapes = _tap_call_shapes(fabric) if fabric is not None else dict
                run()
                if fabric is not None:
                    fabric.flush()
                assert tracer.bindings_live == 0
                if watcher == "unsampled":
                    assert tracer.spans_recorded == 0 and tracer.traces() == []
                if watcher == "default" and build in (_put_many, _append_many):
                    assert tracer.spans_recorded > 0  # FETCH_ADD banks bind nothing
                seen[watcher] = {
                    "memory": [host.region.snapshot() for host in hosts],
                    "nic": [_values(host.nic.counters) for host in hosts],
                    "fabric": fabric and _values(fabric.counters),
                    "delivered": isinstance(fabric, ImpairedFabric)
                    and _values(fabric.delivered),
                    "shapes": shapes(),
                }
            finally:
                obs.set_registry(previous_registry)
                obs.set_tracer(previous_tracer)
        assert seen["unsampled"] == seen["none"]
        assert seen["default"] == seen["none"]
        if fabric_name != "in_process":
            assert seen["none"]["shapes"]["send_batch"] == 1
            assert seen["none"]["shapes"]["ingest_batch"] >= 1

    def test_in_process_put_many_follows_call_shape(self):
        """One tracer: ``put_many`` is one span for the batch, looped
        ``put`` one trace per report."""
        from repro.collector.store import DartStore
        from repro.core.config import DartConfig

        config = DartConfig(slots_per_collector=256, num_collectors=2, redundancy=2)
        items = [(("flow", i), bytes([i]) * 4) for i in range(5)]
        _registry, tracer, restore = _fresh_obs()
        try:
            store = DartStore(config)
            assert store.put_many(items) == 10
            (record,) = tracer.traces()
            assert (record.kind, record.stages) == ("put_many", ("store.put_many",))
            assert sum(store.put(key, value) for key, value in items) == 10
            records = tracer.traces("report")
            assert len(records) == 5 == len(tracer.traces()) - 1
            assert records[0].stages == ("reporter.writes_for",)
        finally:
            restore()


class TestRetentionUnderImpairment:
    """The satellite invariant: every tail-retained trace -- however it
    got retained, and even when eviction or sampling raced it -- holds a
    structurally complete root-to-leaf span tree."""

    def _assert_kept_complete(self, tracer):
        analyzer = TraceAnalyzer()
        kept = tracer.kept()
        assert kept, "scenario must tail-retain at least one trace"
        for record in kept:
            assert record.keep_reasons
            analysis = analyzer.analyze(record)
            assert analysis.complete, (
                f"trace {record.trace_id}: {analysis.problems}"
            )

    def test_impaired_loss_with_eviction_and_sampling(self):
        _registry, _tracer, restore = _fresh_obs()
        tracer = Tracer(max_traces=6, sample_rate=0.6, max_kept=64)
        obs.set_tracer(tracer)
        try:
            fabric = ImpairedFabric(
                InlineFabric(), loss=0.15, reordering=0.4, seed=3
            )
            store = AppendStore(capacity=256, record_bytes=16, fabric=fabric)
            writer = store.register_writer(0)
            for i in range(60):
                writer.append(b"rec-%04d" % i)
            fabric.flush()
            assert tracer.traces_evicted > 0
            assert tracer.traces_sampled_out > 0
            self._assert_kept_complete(tracer)
            assert tracer.bindings_live == 0
        finally:
            restore()

    def test_buffered_reordering_with_midflight_keeps(self):
        _registry, _tracer, restore = _fresh_obs()
        tracer = Tracer(max_traces=6, sample_rate=0.7, max_kept=64)
        obs.set_tracer(tracer)
        try:
            fabric = BufferedFabric(flush_threshold=8)
            store = AppendStore(capacity=256, record_bytes=16, fabric=fabric)
            writer = store.register_writer(0)
            for i in range(40):
                if i % 10 == 9:
                    # Every tenth append runs under an explicitly kept
                    # audit trace; eviction must not corrupt its tree.
                    trace_id = tracer.begin("audit", key=f"i={i}")
                    with tracer.activate(trace_id):
                        writer.append(b"buf-%04d" % i)
                    tracer.keep(trace_id, "audit")
                    tracer.end(trace_id)
                else:
                    writer.append(b"buf-%04d" % i)
            fabric.flush()
            assert tracer.traces_evicted > 0
            self._assert_kept_complete(tracer)
            assert tracer.bindings_live == 0
        finally:
            restore()
