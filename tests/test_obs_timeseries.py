"""Tests for repro.obs.timeseries: rings, scrapes, persistence."""

import json

import pytest

from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.obs.timeseries import MetricsScraper, Series, load_jsonl, sparkline

from .rigs import fresh_registry


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

    def test_delta_spans_only_retained_points(self):
        series = Series("c", (), "counter", capacity=3)
        for tick in range(5):
            series.append(tick, tick * 10)
        assert series.delta() == 20.0  # 40 - 20: ticks 0 and 1 evicted

    def test_capacity_below_two_rejected(self):
        with pytest.raises(ValueError):
            Series("c", (), "counter", capacity=1)

    def test_delta(self):
        series = Series("c", (), "counter", capacity=8)
        series.append(0, 0)
        series.append(2, 10)
        series.append(4, 30)
        assert series.delta() == 30.0

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
        assert series.latest() is None
        series.append(5, 1)
        assert series.delta() == 0.0  # single point: no span


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
        assert series.delta() == 4.0
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

    def test_observers_see_every_scrape_in_order(self):
        registry = MetricsRegistry()
        counter = registry.counter("events")
        scraper = MetricsScraper(registry, interval=5)
        seen = []
        scraper.add_observer(
            lambda tick, snapshot: seen.append((tick, snapshot.total("events")))
        )
        for tick in range(12):
            counter.inc()
            scraper.maybe_scrape(tick)
        assert seen == [(0, 1.0), (5, 6.0), (10, 11.0)]

    def test_names_lists_each_family_once(self):
        registry = MetricsRegistry()
        registry.counter("hits", labels={"node": "a"}).inc()
        registry.counter("hits", labels={"node": "b"}).inc()
        registry.gauge("depth").set(3)
        scraper = MetricsScraper(registry)
        assert scraper.names() == []
        scraper.scrape(1)
        assert scraper.names() == ["depth", "hits"]
        assert len(scraper.family("hits")) == 2

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
        registry, restore = fresh_registry()
        try:
            registry.counter("events").inc()
            scraper = MetricsScraper()
            scraper.scrape(1)
            assert scraper.series("events").latest() == 1
        finally:
            restore()

    def test_histogram_series_count_observations(self):
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
        assert "hits" in scraper.names()

    def test_unknown_series_queries_are_zero(self):
        scraper = MetricsScraper(MetricsRegistry())
        assert scraper.series("nope") is None
        assert scraper.family("nope") == []
        assert scraper.total_series("nope") == []

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


class TestPersistence:
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


class TestSimulationDrivesScraper:
    def test_int_simulation_drives_maybe_scrape(self):
        from repro.core.config import DartConfig
        from repro.network.flows import FlowGenerator
        from repro.network.simulation import IntSimulation
        from repro.network.topology import FatTreeTopology

        registry, restore = fresh_registry()
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
            points = scraper.total_series("mem_writes")
            assert points[-1][1] > points[0][1]
        finally:
            restore()

    def test_packet_network_drives_maybe_scrape(self):
        from repro.core.config import DartConfig
        from repro.network.flows import FlowGenerator
        from repro.network.packet_sim import PacketLevelIntNetwork
        from repro.network.topology import FatTreeTopology

        registry, restore = fresh_registry()
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
            points = scraper.total_series("nic_frames_received")
            assert points[-1][1] > points[0][1]
        finally:
            restore()
