"""Tests for repro.obs.timeseries: rings, scrapes, persistence, trends."""

import json

import pytest

from repro import obs
from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.obs.timeseries import (
    MetricsScraper,
    Series,
    load_jsonl,
    sparkline,
    trend_diff,
)


def _with_registry():
    """Install a fresh registry; returns (registry, restore)."""
    registry = obs.MetricsRegistry()
    previous = obs.set_registry(registry)
    return registry, lambda: obs.set_registry(previous)


class TestSparkline:
    def test_empty_is_empty_string(self):
        assert sparkline([]) == ""

    def test_flat_series_renders_low_blocks(self):
        assert sparkline([3, 3, 3]) == "▁▁▁"

    def test_ramp_ends_at_tallest_block(self):
        text = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert text[0] == "▁"
        assert text[-1] == "█"

    def test_width_keeps_the_trailing_points(self):
        text = sparkline([0] * 100 + [10], width=4)
        assert len(text) == 4
        assert text[-1] == "█"


class TestSeries:
    def test_capacity_evicts_oldest(self):
        series = Series("c", (), "counter", capacity=3)
        for tick in range(5):
            series.append(tick, tick * 10)
        assert series.ticks() == [2, 3, 4]
        assert series.values() == [20, 30, 40]
        assert len(series) == 3

    def test_capacity_below_two_rejected(self):
        with pytest.raises(ValueError):
            Series("c", (), "counter", capacity=1)

    def test_delta_and_rate(self):
        series = Series("c", (), "counter", capacity=8)
        series.append(0, 0)
        series.append(2, 10)
        series.append(4, 30)
        assert series.delta() == 30.0
        assert series.rate() == 30.0 / 4
        assert series.delta(window=2) == 20.0
        assert series.rate(window=2) == 10.0

    def test_counter_reset_clamps_to_zero(self):
        series = Series("c", (), "counter", capacity=8)
        series.append(0, 100)
        series.append(1, 5)  # registry reset mid-run
        assert series.delta() == 0.0

    def test_gauge_delta_may_go_negative(self):
        series = Series("g", (), "gauge", capacity=8)
        series.append(0, 10)
        series.append(1, 4)
        assert series.delta() == -6.0

    def test_empty_windows_are_zero(self):
        series = Series("c", (), "counter", capacity=8)
        assert series.delta() == 0.0
        assert series.rate() == 0.0
        assert series.latest() is None
        series.append(5, 1)
        assert series.rate() == 0.0  # single point: no span

    def test_histogram_windowed_quantile(self):
        bounds = (0.1, 1.0, 10.0)
        series = Series("h", (), "histogram", capacity=8, bounds=bounds)
        # Cumulative bucket counts: first scrape all small, second adds
        # 10 observations in the 1.0..10.0 bucket.
        series.append(0, ((5, 0, 0, 0), 0.5))
        series.append(1, ((5, 0, 10, 0), 40.5))
        assert series.quantile(0.5) == 10.0
        assert series.quantile(0.0) == pytest.approx(0.1, abs=10)

    def test_quantile_rejects_non_histograms_and_bad_q(self):
        counter = Series("c", (), "counter", capacity=4)
        with pytest.raises(ValueError):
            counter.quantile(0.5)
        histogram = Series("h", (), "histogram", capacity=4, bounds=(1.0,))
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_quantile_empty_window_is_zero(self):
        series = Series("h", (), "histogram", capacity=4, bounds=(1.0,))
        assert series.quantile(0.9) == 0.0


class TestMetricsScraper:
    def test_scrape_appends_points_per_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("events")
        scraper = MetricsScraper(registry)
        counter.inc(3)
        scraper.scrape(1)
        counter.inc(4)
        scraper.scrape(2)
        series = scraper.series("events")
        assert series.points() == [(1, 3), (2, 7)]
        assert scraper.delta("events") == 4.0
        assert scraper.scrapes == 2

    def test_maybe_scrape_honours_interval(self):
        registry = MetricsRegistry()
        registry.counter("events").inc()
        scraper = MetricsScraper(registry, interval=10)
        assert scraper.maybe_scrape(0) is not None  # first always scrapes
        assert scraper.maybe_scrape(5) is None
        assert scraper.maybe_scrape(9) is None
        assert scraper.maybe_scrape(10) is not None
        assert scraper.scrapes == 2

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            MetricsScraper(MetricsRegistry(), interval=0)

    def test_scrape_without_tick_self_advances(self):
        registry = MetricsRegistry()
        registry.counter("events").inc()
        scraper = MetricsScraper(registry)
        scraper.scrape()
        scraper.scrape()
        assert scraper.series("events").ticks() == [0, 1]

    def test_default_registry_is_process_registry(self):
        registry, restore = _with_registry()
        try:
            registry.counter("events").inc()
            scraper = MetricsScraper()
            scraper.scrape(1)
            assert scraper.series("events").latest() == 1
        finally:
            restore()

    def test_histogram_series_and_windowed_quantile(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", LATENCY_BUCKETS)
        scraper = MetricsScraper(registry)
        histogram.observe(0.00005)
        scraper.scrape(1)
        for _ in range(20):
            histogram.observe(0.004)
        scraper.scrape(2)
        series = scraper.series("lat")
        assert series.kind == "histogram"
        assert series.delta() == 20.0
        assert scraper.quantile("lat", 0.5) == 0.005

    def test_family_and_total_series_roll_up_labels(self):
        registry = MetricsRegistry()
        registry.counter("hits", labels={"kind": "a"}).inc(2)
        registry.counter("hits", labels={"kind": "b"}).inc(3)
        scraper = MetricsScraper(registry)
        scraper.scrape(1)
        registry.counter("hits", labels={"kind": "a"}).inc(5)
        scraper.scrape(2)
        assert len(scraper.family("hits")) == 2
        assert scraper.total_series("hits") == [(1, 5.0), (2, 10.0)]
        assert scraper.total_delta("hits") == 5.0
        assert "hits" in scraper.names()

    def test_unknown_series_queries_are_zero(self):
        scraper = MetricsScraper(MetricsRegistry())
        assert scraper.series("nope") is None
        assert scraper.delta("nope") == 0.0
        assert scraper.rate("nope") == 0.0
        assert scraper.quantile("nope", 0.5) == 0.0
        assert scraper.total_delta("nope") == 0.0

    def test_ring_capacity_bounds_retention(self):
        registry = MetricsRegistry()
        counter = registry.counter("events")
        scraper = MetricsScraper(registry, capacity=4)
        for tick in range(10):
            counter.inc()
            scraper.scrape(tick)
        series = scraper.series("events")
        assert len(series) == 4
        assert series.ticks() == [6, 7, 8, 9]


class TestPersistenceAndTrendDiff:
    def test_persist_writes_one_json_line_per_scrape(self, tmp_path):
        path = tmp_path / "run.jsonl"
        registry = MetricsRegistry()
        counter = registry.counter("events")
        histogram = registry.histogram("lat", LATENCY_BUCKETS)
        scraper = MetricsScraper(registry, persist_path=str(path))
        counter.inc(2)
        histogram.observe(0.001)
        scraper.scrape(1)
        counter.inc(3)
        scraper.scrape(2)
        rows = load_jsonl(str(path))
        assert [row["tick"] for row in rows] == [1, 2]
        by_name = {s["name"]: s for s in rows[-1]["samples"]}
        assert by_name["events"]["value"] == 5
        assert by_name["lat"]["count"] == 1
        # Each line is standalone JSON (tail -1 friendly).
        last = path.read_text().strip().splitlines()[-1]
        assert json.loads(last)["tick"] == 2

    def test_trend_diff_compares_final_totals(self, tmp_path):
        def run(path, final):
            registry = MetricsRegistry()
            counter = registry.counter("events")
            scraper = MetricsScraper(registry, persist_path=str(path))
            counter.inc(1)
            scraper.scrape(1)
            counter.inc(final - 1)
            scraper.scrape(2)

        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(a, 10)
        run(b, 17)
        diff = trend_diff(load_jsonl(str(a)), load_jsonl(str(b)))
        assert diff["events"] == {"a": 10.0, "b": 17.0, "delta": 7.0}

    def test_trend_diff_missing_families_read_as_zero(self):
        run_a = [{"tick": 1, "samples": [
            {"name": "only_a", "labels": {}, "kind": "counter", "value": 4}]}]
        run_b = [{"tick": 1, "samples": [
            {"name": "only_b", "labels": {}, "kind": "counter", "value": 9}]}]
        diff = trend_diff(run_a, run_b)
        assert diff["only_a"]["delta"] == -4.0
        assert diff["only_b"]["delta"] == 9.0
        assert trend_diff([], []) == {}

    def test_trend_diff_groups_per_node_series(self, tmp_path):
        """A one-collector regression must not be averaged away."""

        def run(path, per_node):
            registry = MetricsRegistry()
            for node, value in per_node.items():
                registry.counter(
                    "nic_frames_received", labels=(("node", node),)
                ).inc(value)
            registry.counter("fabric_frames_offered").inc(
                sum(per_node.values())
            )
            MetricsScraper(registry, persist_path=str(path)).scrape(1)

        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(a, {"collector-0": 100, "collector-1": 100})
        run(b, {"collector-0": 100, "collector-1": 40})
        runs = (load_jsonl(str(a)), load_jsonl(str(b)))

        # Ungrouped, the sick collector hides inside the fleet total ...
        flat = trend_diff(*runs)
        assert flat["nic_frames_received"]["delta"] == -60.0
        # ... grouped per node, it is pinpointed (keys Prometheus-style).
        by_node = trend_diff(*runs, group_label="node")
        assert by_node['nic_frames_received{node="collector-0"}'][
            "delta"
        ] == 0.0
        assert by_node['nic_frames_received{node="collector-1"}'][
            "delta"
        ] == -60.0
        # Unlabelled families pass through under their bare name.
        assert by_node["fabric_frames_offered"]["delta"] == -60.0


class TestSimulationDrivesScraper:
    def test_int_simulation_drives_maybe_scrape(self):
        from repro.core.config import DartConfig
        from repro.network.flows import FlowGenerator
        from repro.network.simulation import IntSimulation
        from repro.network.topology import FatTreeTopology

        registry, restore = _with_registry()
        try:
            scraper = MetricsScraper(registry, interval=8)
            tree = FatTreeTopology(k=4)
            sim = IntSimulation(
                tree,
                DartConfig(slots_per_collector=512, seed=3),
                scraper=scraper,
            )
            flows = FlowGenerator(tree.num_hosts, host_ip=tree.host_ip, seed=3)
            sim.trace_flows(flows.uniform(40))
            # Ticks are report counts: first report scrapes, then every
            # 8th (ticks 1, 9, 17, 25, 33).
            assert scraper.scrapes == 5
            assert scraper.last_tick == 33
            assert scraper.total_delta("mem_writes") > 0
        finally:
            restore()

    def test_packet_network_drives_maybe_scrape(self):
        from repro.core.config import DartConfig
        from repro.network.flows import FlowGenerator
        from repro.network.packet_sim import PacketLevelIntNetwork
        from repro.network.topology import FatTreeTopology

        registry, restore = _with_registry()
        try:
            scraper = MetricsScraper(registry, interval=4)
            tree = FatTreeTopology(k=4)
            net = PacketLevelIntNetwork(
                tree,
                DartConfig(slots_per_collector=512, seed=3),
                scraper=scraper,
            )
            flows = FlowGenerator(tree.num_hosts, host_ip=tree.host_ip, seed=3)
            for flow in flows.uniform(8):
                net.send(flow)
            assert scraper.scrapes == 2
            assert scraper.total_delta("nic_frames_received") > 0
        finally:
            restore()
