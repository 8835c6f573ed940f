"""Tests for repro.obs.metrics: registry, histograms, snapshots, exposition."""

import json

import pytest

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Histogram,
    MetricsRegistry,
)


class TestCounterGauge:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("events")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_identity_per_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("events", labels={"kind": "a"})
        b = registry.counter("events", labels={"kind": "a"})
        c = registry.counter("events", labels={"kind": "b"})
        assert a is b
        assert a is not c

    def test_label_normalisation_is_order_independent(self):
        registry = MetricsRegistry()
        a = registry.counter("x", labels=[("b", "2"), ("a", "1")])
        b = registry.counter("x", labels={"a": "1", "b": "2"})
        assert a is b

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.gauge("thing")

    def test_gauge_set_and_set_max(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(5)
        gauge.set_max(3)
        assert gauge.value == 5
        gauge.set_max(9)
        assert gauge.value == 9

    def test_total_aggregates_with_filters(self):
        registry = MetricsRegistry()
        registry.counter("hits", labels={"kind": "a"}).inc(2)
        registry.counter("hits", labels={"kind": "b"}).inc(3)
        assert registry.total("hits") == 5
        assert registry.total("hits", kind="a") == 2

    def test_instance_labels_are_unique(self):
        registry = MetricsRegistry()
        first = registry.instance_labels("Widget")
        second = registry.instance_labels("Widget")
        assert first != second
        assert dict(first)["kind"] == "Widget"


class TestHistogramBuckets:
    def test_value_on_boundary_lands_in_le_bucket(self):
        # Prometheus `le` semantics: v <= bound is inclusive.
        h = Histogram("h", buckets=(1.0, 2.0, 5.0))
        h.observe(1.0)
        h.observe(2.0)
        h.observe(5.0)
        assert h.counts == (1, 1, 1, 0)

    def test_value_above_last_bound_overflows(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(2.0001)
        h.observe(1e9)
        assert h.counts == (0, 0, 2)

    def test_value_below_first_bound(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(0.0)
        h.observe(-3.0)
        assert h.counts == (2, 0, 0)

    def test_cumulative_counts(self):
        h = Histogram("h", buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.5, 1.7, 3.0, 100.0):
            h.observe(value)
        assert h.cumulative() == (1, 3, 4, 5)
        assert h.count == 5
        assert h.sum == pytest.approx(106.7)

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_quantile_returns_bucket_bound(self):
        h = Histogram("h", buckets=(1.0, 2.0, 5.0))
        for _ in range(99):
            h.observe(0.5)
        h.observe(4.0)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(1.0) == 5.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_mean_and_reset(self):
        h = Histogram("h", buckets=LATENCY_BUCKETS)
        h.observe(0.25)
        h.observe(0.75)
        assert h.mean == pytest.approx(0.5)
        h.reset()
        assert h.count == 0 and h.sum == 0.0
        assert set(h.counts) == {0}


class TestSnapshotDiff:
    def test_snapshot_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(7)
        registry.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        snap = registry.snapshot()
        assert snap.get("c") == 3
        assert snap.get("g") == 7
        counts, total, bounds = snap.samples[("h", ())][1]
        assert counts == (0, 1, 0) and bounds == (1.0, 2.0)
        # Snapshots are copies: further increments don't leak in.
        registry.counter("c").inc()
        assert snap.get("c") == 3

    def test_diff_window_semantics(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        gauge = registry.gauge("g")
        h = registry.histogram("h", buckets=(1.0,))
        counter.inc(2)
        gauge.set(10)
        h.observe(0.5)
        before = registry.snapshot()
        counter.inc(5)
        gauge.set(4)
        h.observe(0.5)
        h.observe(99.0)
        window = registry.snapshot().diff(before)
        assert window.get("c") == 5  # counters subtract
        assert window.get("g") == 4  # gauges keep the newer reading
        counts, _total, _bounds = window.samples[("h", ())][1]
        assert counts == (1, 1)  # histogram buckets subtract

    def test_diff_passes_through_new_series(self):
        registry = MetricsRegistry()
        before = registry.snapshot()
        registry.counter("fresh").inc(9)
        window = registry.snapshot().diff(before)
        assert window.get("fresh") == 9

    def test_reset_zeroes_but_keeps_identity(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(4)
        registry.reset()
        assert counter.value == 0
        assert registry.counter("c") is counter


class TestExposition:
    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("frames", labels={"kind": "nic"}).inc(2)
        registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
        text = registry.to_prometheus()
        assert '# TYPE repro_frames counter' in text
        assert 'repro_frames_total{kind="nic"} 2' in text
        assert 'repro_lat_bucket{le="0.1"} 1' in text
        assert 'repro_lat_bucket{le="+Inf"} 1' in text
        assert "repro_lat_count 1" in text

    def test_json_exposition_parses(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        rows = json.loads(registry.snapshot().to_json())
        by_name = {row["name"]: row for row in rows}
        assert by_name["c"]["value"] == 1
        assert by_name["h"]["count"] == 1
        assert by_name["h"]["buckets"][-1]["le"] == "+Inf"


def _parse_prometheus(text):
    """Minimal exposition-format parser for the round-trip test.

    Returns (types, helps, samples) where ``types``/``helps`` map family
    name -> list of occurrences (so the test can assert exactly-once) and
    ``samples`` maps each sample line's name+labels part -> float value.
    """
    types = {}
    helps = {}
    samples = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _hash, _kw, family, kind = line.split(" ", 3)
            types.setdefault(family, []).append(kind)
        elif line.startswith("# HELP "):
            _hash, _kw, family, help_text = line.split(" ", 3)
            helps.setdefault(family, []).append(help_text)
        else:
            samples[line.rsplit(" ", 1)[0]] = float(line.rsplit(" ", 1)[1])
    return types, helps, samples


class TestPrometheusRoundTrip:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter(
            "frames", labels={"kind": "nic"}, help="frames seen"
        ).inc(2)
        registry.counter("frames", labels={"kind": "fabric"}).inc(5)
        registry.gauge("depth", help="queue depth").set(3)
        h = registry.histogram("lat", buckets=(0.1, 1.0), help="latency")
        h.observe(0.05)
        h.observe(0.5)
        return registry

    def test_type_and_help_once_per_family(self):
        text = self._registry().to_prometheus()
        types, helps, samples = _parse_prometheus(text)
        # Exactly one TYPE per family even with multiple label sets.
        assert types == {
            "repro_frames": ["counter"],
            "repro_depth": ["gauge"],
            "repro_lat": ["histogram"],
        }
        assert helps == {
            "repro_frames": ["frames seen"],
            "repro_depth": ["queue depth"],
            "repro_lat": ["latency"],
        }
        assert samples['repro_frames_total{kind="nic"}'] == 2.0
        assert samples['repro_frames_total{kind="fabric"}'] == 5.0
        assert samples["repro_depth"] == 3.0
        assert samples['repro_lat_bucket{le="+Inf"}'] == 2.0

    def test_node_labelled_families_group_under_one_comment_pair(self):
        """Per-node series of one family share a single HELP/TYPE pair."""
        registry = MetricsRegistry()
        with registry.node_scope("collector-0"):
            registry.counter(
                "nic_frames_received",
                labels=registry.instance_labels("RdmaNic"),
                help="frames the NIC accepted",
            ).inc(1190)
        with registry.node_scope("collector-1"):
            registry.counter(
                "nic_frames_received",
                labels=registry.instance_labels("RdmaNic"),
            ).inc(740)
        registry.counter("fabric_frames_offered").inc(2000)
        types, helps, samples = _parse_prometheus(registry.to_prometheus())
        # One comment pair per family, not per node.
        assert types["repro_nic_frames_received"] == ["counter"]
        assert helps["repro_nic_frames_received"] == [
            "frames the NIC accepted"
        ]
        # Both nodes' samples survive the round trip with their values.
        per_node = {
            key: value
            for key, value in samples.items()
            if key.startswith("repro_nic_frames_received_total")
        }
        assert len(per_node) == 2
        assert sum(per_node.values()) == 1930.0
        for node, value in (("collector-0", 1190.0), ("collector-1", 740.0)):
            (key,) = [k for k in per_node if f'node="{node}"' in k]
            assert per_node[key] == value
        # Snapshot exposition agrees byte-for-byte with the live one.
        assert registry.snapshot().to_prometheus() == registry.to_prometheus()

    def test_comments_precede_all_family_samples(self):
        text = self._registry().to_prometheus()
        lines = text.splitlines()
        first_sample = {}
        last_comment = {}
        for index, line in enumerate(lines):
            if line.startswith("#"):
                family = line.split(" ", 3)[2]
                last_comment[family] = index
            else:
                name = line.split("{", 1)[0].split(" ", 1)[0]
                for suffix in ("_bucket", "_sum", "_count", "_total"):
                    if name.endswith(suffix):
                        name = name[: -len(suffix)]
                        break
                first_sample.setdefault(name, index)
        for family, comment_index in last_comment.items():
            assert comment_index < first_sample[family], (
                f"comment for {family} interleaved with its samples"
            )

    def test_families_without_help_omit_the_help_line(self):
        registry = MetricsRegistry()
        registry.counter("bare").inc()
        text = registry.to_prometheus()
        assert "# HELP repro_bare" not in text
        assert "# TYPE repro_bare counter" in text

    def test_help_and_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter(
            "odd",
            labels={"path": 'a"b\\c\nd'},
            help="line one\nline \\ two",
        ).inc()
        text = registry.to_prometheus()
        assert "# HELP repro_odd line one\\nline \\\\ two" in text
        assert '{path="a\\"b\\\\c\\nd"}' in text
        # Escapes keep each sample on a single physical line.
        assert len([ln for ln in text.splitlines() if "repro_odd" in ln]) == 3


class TestDiffRegressions:
    def test_gauge_decrease_keeps_latest_reading(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(10)
        before = registry.snapshot()
        gauge.set(2)
        window = registry.snapshot().diff(before)
        # A gauge delta of -8 would read as nonsense; diff reports the
        # newer reading instead.
        assert window.get("depth") == 2

    def test_histogram_diff_buckets_stay_non_negative_and_monotone(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", buckets=(0.1, 1.0, 10.0))
        h.observe(0.05)
        h.observe(5.0)
        before = registry.snapshot()
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        window = registry.snapshot().diff(before)
        counts, total, bounds = window.samples[("lat", ())][1]
        assert all(count >= 0 for count in counts)
        assert sum(counts) == 3
        assert bounds == (0.1, 1.0, 10.0)
        # Cumulative form (what the exposition emits) must be monotone.
        running = 0
        cumulative = []
        for count in counts:
            running += count
            cumulative.append(running)
        assert cumulative == sorted(cumulative)

    def test_diff_carries_help_texts(self):
        registry = MetricsRegistry()
        registry.counter("c", help="a counter").inc()
        before = registry.snapshot()
        registry.counter("c").inc()
        window = registry.snapshot().diff(before)
        assert "# HELP repro_c a counter" in window.to_prometheus()


class TestDisabledRegistry:
    def test_disabled_registry_hands_out_null_singletons(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("c") is NULL_COUNTER
        assert registry.gauge("g") is NULL_GAUGE
        assert registry.histogram("h", buckets=(1.0,)) is NULL_HISTOGRAM

    def test_null_metrics_record_nothing(self):
        NULL_COUNTER.inc(100)
        NULL_GAUGE.set(5)
        NULL_GAUGE.set_max(9)
        NULL_HISTOGRAM.observe(1.0)
        assert NULL_COUNTER.value == 0
        assert NULL_GAUGE.value == 0
        assert NULL_HISTOGRAM.count == 0
        assert NULL_HISTOGRAM.quantile(0.5) == 0.0
        assert not NULL_COUNTER.enabled

    def test_disabled_registry_exposes_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("c").inc()
        assert registry.snapshot().samples == {}
        assert registry.to_prometheus() == ""


class TestHistogramExemplars:
    def test_exemplar_tracks_the_quantile_bucket(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", buckets=(0.1, 1.0, 10.0))
        # 98 fast observations, 2 slow ones carrying exemplar trace ids.
        for _ in range(98):
            h.observe(0.05)
        h.observe_exemplar(5.0, 41)
        h.observe_exemplar(5.0, 42)
        # p99 rank lands in the slow bucket: latest exemplar wins there.
        assert h.exemplar(0.99) == 42
        # The median bucket has no exemplar stamped: nothing invented.
        assert h.exemplar(0.5) is None

    def test_exemplar_without_observations_is_none(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", buckets=(1.0,))
        assert h.exemplar() is None
        h.observe(0.5)  # plain observations never stamp exemplars
        assert h.exemplar() is None

    def test_exemplar_lands_in_overflow_bucket(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", buckets=(1.0,))
        h.observe_exemplar(99.0, 7)  # beyond the last bound
        assert h.exemplar(0.99) == 7

    def test_exemplar_validates_quantile(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", buckets=(1.0,))
        with pytest.raises(ValueError):
            h.exemplar(1.5)

    def test_reset_clears_exemplars(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", buckets=(1.0,))
        h.observe_exemplar(0.5, 11)
        h.reset()
        assert h.exemplar() is None

    def test_observe_exemplar_counts_like_observe(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", buckets=(1.0,))
        h.observe_exemplar(0.5, 11)
        assert sum(h.counts) == 1
        assert h.count == 1
        assert h.sum == 0.5

    def test_null_histogram_exemplars_are_inert(self):
        registry = MetricsRegistry(enabled=False)
        h = registry.histogram("lat", buckets=(1.0,))
        h.observe_exemplar(0.5, 11)
        assert h.exemplar() is None
