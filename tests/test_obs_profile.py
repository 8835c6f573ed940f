"""Tests for repro.obs.profile: stage stats, event ring, Chrome export."""

import json
from time import perf_counter

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import StageProfiler, StageStats


class TestStageStats:
    def test_aggregates_fold_observations(self):
        stats = StageStats("s")
        stats.add(0.002)
        stats.add(0.004)
        assert stats.count == 2
        assert stats.total == pytest.approx(0.006)
        assert stats.mean == pytest.approx(0.003)
        assert stats.min == pytest.approx(0.002)
        assert stats.max == pytest.approx(0.004)

    def test_to_dict_on_empty_stats(self):
        row = StageStats("s").to_dict()
        assert row["count"] == 0
        assert row["mean_seconds"] == 0.0
        assert row["min_seconds"] == 0.0


class TestStageProfiler:
    def test_record_accumulates_stats_and_events(self):
        profiler = StageProfiler()
        profiler.record("a", 1.0, 1.5)
        profiler.record("a", 2.0, 2.25)
        profiler.record("b", 3.0, 3.1)
        stats = {s.stage: s for s in profiler.stats()}
        assert stats["a"].count == 2
        assert stats["a"].total == pytest.approx(0.75)
        assert stats["b"].count == 1
        assert len(profiler.events()) == 3
        # Heaviest-first ordering for the table.
        assert profiler.stats()[0].stage == "a"

    def test_negative_durations_clamp_to_zero(self):
        profiler = StageProfiler()
        profiler.record("a", 5.0, 4.0)
        assert profiler.stats()[0].total == 0.0

    def test_stage_context_manager_records(self):
        profiler = StageProfiler()
        with profiler.stage("scoped"):
            pass
        assert profiler.stats()[0].stage == "scoped"
        assert profiler.stats()[0].count == 1

    def test_event_ring_drops_oldest_but_keeps_aggregates(self):
        for max_events in (8, 7, 1):
            profiler = StageProfiler(max_events=max_events)
            for i in range(20):
                profiler.record("s", float(i), float(i) + 0.001)
                assert len(profiler.events()) <= max_events
            # Each dropped event is counted once.
            assert profiler.dropped_events == 20 - len(profiler.events()) > 0
            assert profiler.stats()[0].count == 20  # aggregates stay exact
            assert "ring wrapped" in profiler.render()

    def test_max_events_must_be_positive(self):
        with pytest.raises(ValueError):
            StageProfiler(max_events=0)

    def test_registry_histograms_fed_when_given(self):
        """One clock pair per stop: histogram and attached profiler agree."""
        registry = MetricsRegistry()
        timer = registry.stage("hot")
        assert registry.stage("hot") is timer
        timer.stop(timer.start())  # nobody attached: histogram only
        profiler = StageProfiler()
        registry.attach_profiler(profiler)
        timer.stop(timer.start())
        timer.stop(timer.start(), exemplar=7)
        series = [
            (labels, metric)
            for labels, metric in registry.samples("stage_seconds")
        ]
        assert len(series) == 1
        labels, metric = series[0]
        assert labels["stage"] == "hot"
        assert metric.count == 3
        assert metric.exemplar(1.0) == 7 or metric.exemplar(0.0) == 7
        (stats,) = profiler.stats()
        assert (stats.stage, stats.count) == ("hot", 2)
        registry.attach_profiler(None)
        timer.stop(timer.start())
        assert metric.count == 4 and stats.count == 2

    def test_render_lists_stages(self):
        profiler = StageProfiler()
        profiler.record("alpha", 0.0, 0.004)
        text = profiler.render()
        assert "stage profile" in text
        assert "alpha" in text
        assert "calls" in text


class TestChromeTraceExport:
    def _validate_trace(self, trace):
        """Assert the object satisfies the trace_event JSON-object schema."""
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        assert trace["displayTimeUnit"] == "ms"
        for event in trace["traceEvents"]:
            assert event["ph"] in ("X", "M")
            assert isinstance(event["name"], str)
            assert isinstance(event["pid"], int)
            if event["ph"] == "X":
                assert isinstance(event["tid"], int)
                assert event["ts"] >= 0
                assert event["dur"] >= 0
                assert event["cat"] == "repro"
            else:
                assert "name" in event["args"]

    def test_export_schema_and_round_trip(self, tmp_path):
        profiler = StageProfiler()
        base = perf_counter()
        profiler.record("fabric.deliver", base + 0.001, base + 0.002)
        profiler.record("nic.ingest", base + 0.002, base + 0.0025)
        profiler.record("fabric.deliver", base + 0.003, base + 0.004)
        trace = profiler.to_chrome_trace()
        self._validate_trace(trace)
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        metadata = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert len(events) == 3
        # One process_name plus one thread_name per distinct stage.
        assert len(metadata) == 3
        assert metadata[0]["args"]["name"] == "repro-pipeline"
        # Same stage shares a tid; distinct stages get distinct tids.
        tids = {e["name"]: e["tid"] for e in events}
        assert len(set(tids.values())) == 2
        # Durations are microseconds: 1ms -> 1000us.
        assert events[0]["dur"] == pytest.approx(1000.0)
        # JSON round-trip through a file (what chrome://tracing loads).
        path = tmp_path / "trace.json"
        written = profiler.write_chrome_trace(str(path))
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(written))
        self._validate_trace(loaded)

    def test_unused_profiler_trace_is_empty_but_valid(self):
        trace = StageProfiler().to_chrome_trace()
        self._validate_trace(trace)
        assert [e for e in trace["traceEvents"] if e["ph"] == "X"] == []


def _hot_stage_labels(registry):
    """``stage`` labels of the non-empty ``stage_seconds`` series."""
    return sorted(
        labels["stage"]
        for labels, metric in registry.samples("stage_seconds")
        if metric.count
    )


class TestNullProfiler:
    """The null case is no object: nothing attached to the registry."""

    def test_inert_surface(self):
        """Unattached, a per-frame site has nothing telling it to time."""
        registry = MetricsRegistry()
        timer = registry.stage("nic.ingest")
        assert registry.profiler is None and timer.profiler is None
        disabled = MetricsRegistry(enabled=False).stage("nic.ingest")
        disabled.stop(disabled.start())  # no sink: a no-op, not an error
        assert disabled.histogram.count == 0

    def test_process_default_is_null(self):
        assert obs.get_registry().profiler is None


class TestDatapathWiring:
    HOT = ["client.query", "fabric.deliver", "nic.ingest", "store.put_many"]

    def test_packet_pipeline_records_all_hot_stages(self):
        from repro.collector.store import DartStore
        from repro.core.config import DartConfig
        from repro.fabric.fabric import BufferedFabric

        registry = obs.MetricsRegistry()
        profiler = StageProfiler()
        previous_registry = obs.set_registry(registry)
        try:
            store = DartStore(
                DartConfig(slots_per_collector=1024, seed=2),
                packet_level=True,
                fabric=BufferedFabric(flush_threshold=16),
            )
            # Attached after the pipeline is built: it still records.
            registry.attach_profiler(profiler)
            keys = [("10.0.0.1", f"10.0.2.{i}", 7000 + i, 80, 6)
                    for i in range(30)]
            store.put_many((key, b"value") for key in keys)
            store.put(keys[0], b"again")  # the per-frame sites too
            store.fabric.flush()
            for key in keys:
                store.get(key)
            stages = {s.stage for s in profiler.stats()}
            assert set(self.HOT) <= stages
            assert all(s.count > 0 for s in profiler.stats())
            # One clock, one spelling: every profiled stage is exactly one
            # ``stage`` label, with the count the profiler saw.
            labels = _hot_stage_labels(registry)
            assert labels == sorted(stages)
            assert len(labels) == len(set(labels))
            for labels, metric in registry.samples("stage_seconds"):
                if metric.count:
                    (stats,) = [
                        s for s in profiler.stats() if s.stage == labels["stage"]
                    ]
                    assert metric.count == stats.count
        finally:
            obs.set_registry(previous_registry)

    def test_disabled_profiler_records_nothing_on_datapath(self):
        from repro.collector.store import DartStore
        from repro.core.config import DartConfig

        registry = obs.MetricsRegistry()
        profiler = StageProfiler()
        registry.attach_profiler(profiler)
        registry.attach_profiler(None)
        previous_registry = obs.set_registry(registry)
        try:
            store = DartStore(
                DartConfig(slots_per_collector=512, seed=2), packet_level=True
            )
            store.put(("10.0.0.1", "10.0.0.2", 5000, 80, 6), b"v")
            store.get(("10.0.0.1", "10.0.0.2", 5000, 80, 6))
            assert profiler.stats() == []
            # The per-frame sites read no clock unprofiled: their
            # histograms stay empty, only the always-on stage counts.
            assert _hot_stage_labels(registry) == ["client.query"]
        finally:
            obs.set_registry(previous_registry)
