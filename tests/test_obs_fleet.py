"""Fleet observability: node scoping, aggregation, self-telemetry, bundles."""

import json
import pathlib

import pytest

from repro import obs
from repro.core.config import DartConfig
from repro.fabric.fabric import InlineFabric
from repro.fabric.impaired import ImpairedFabric
from repro.network.flows import FlowGenerator
from repro.network.packet_sim import PacketLevelIntNetwork
from repro.network.topology import FatTreeTopology


def _registry():
    return obs.MetricsRegistry(enabled=True)


class TestNodeScope:
    def test_instance_labels_carry_node_inside_scope(self):
        registry = _registry()
        with registry.node_scope("collector-3"):
            labels = registry.instance_labels("RdmaNic")
        # The tuple stays sorted by key: instance < kind < node.
        assert [key for key, _value in labels] == ["instance", "kind", "node"]
        assert dict(labels)["node"] == "collector-3"

    def test_scope_restores_and_nests(self):
        registry = _registry()
        assert "node" not in dict(registry.instance_labels("Fabric"))
        with registry.node_scope("outer"):
            assert dict(registry.instance_labels("A"))["node"] == "outer"
            with registry.node_scope("inner"):
                assert dict(registry.instance_labels("B"))["node"] == "inner"
            assert dict(registry.instance_labels("C"))["node"] == "outer"
        assert "node" not in dict(registry.instance_labels("D"))

    def test_scope_restores_on_exception(self):
        registry = _registry()
        with pytest.raises(RuntimeError):
            with registry.node_scope("doomed"):
                raise RuntimeError("construction failed")
        assert registry.node is None

    def test_filter_labels_and_label_values(self):
        registry = _registry()
        registry.counter(
            "nic_frames_received", labels=(("node", "collector-0"),),
            help="frames",
        ).inc(5)
        registry.counter(
            "nic_frames_received", labels=(("node", "collector-1"),)
        ).inc(7)
        registry.counter("fabric_frames_offered").inc(3)
        snapshot = registry.snapshot()
        assert snapshot.label_values("node") == ["collector-0", "collector-1"]
        sub = snapshot.filter_labels(node="collector-0")
        assert len(sub) == 1
        assert sub.total("nic_frames_received") == 5
        # Help text survives the filter for the surviving family.
        assert sub.help_texts.get("nic_frames_received") == "frames"


class TestMergeSnapshots:
    def test_counters_add_on_collision(self):
        a, b = _registry(), _registry()
        a.counter("hits", labels=(("node", "n0"),)).inc(3)
        b.counter("hits", labels=(("node", "n0"),)).inc(4)
        merged = obs.merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged.total("hits") == 7

    def test_gauges_keep_the_later_reading(self):
        a, b = _registry(), _registry()
        a.gauge("depth").set(10)
        b.gauge("depth").set(2)
        merged = obs.merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged.total("depth") == 2

    def test_histograms_add_buckets_when_bounds_match(self):
        a, b = _registry(), _registry()
        a.histogram("lat", buckets=(1.0, 5.0)).observe(0.5)
        b.histogram("lat", buckets=(1.0, 5.0)).observe(3.0)
        merged = obs.merge_snapshots([a.snapshot(), b.snapshot()])
        ((_key, (kind, value)),) = [
            item for item in merged.samples.items() if item[0][0] == "lat"
        ]
        counts, total, bounds = value
        assert kind == "histogram"
        assert bounds == (1.0, 5.0)
        assert sum(counts) == 2
        assert total == 3.5

    def test_help_texts_first_wins(self):
        a, b = _registry(), _registry()
        a.counter("hits", help="first").inc()
        b.counter("hits", help="second").inc()
        merged = obs.merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged.help_texts["hits"] == "first"


class TestFleetRegistry:
    def _fleet_fixture(self):
        registry = _registry()
        registry.counter(
            "nic_frames_received", labels=(("node", "collector-0"),)
        ).inc(100)
        registry.counter(
            "nic_frames_received", labels=(("node", "collector-1"),)
        ).inc(40)
        registry.counter(
            "mem_writes", labels=(("node", "collector-0"),)
        ).inc(90)
        registry.counter("fabric_frames_offered").inc(140)
        return registry

    def test_nodes_and_node_views(self):
        fleet = obs.FleetRegistry(self._fleet_fixture())
        assert fleet.nodes() == ["collector-0", "collector-1"]
        assert fleet.node_total("nic_frames_received", "collector-0") == 100
        assert len(fleet.node_snapshot("collector-1")) == 1
        health = fleet.node_health("collector-0")
        assert health.nic_frames_received == 100
        assert health.mem_writes == 90

    def test_unattributed_series_separated(self):
        fleet = obs.FleetRegistry(self._fleet_fixture())
        unattributed = fleet.unattributed_snapshot()
        assert {name for name, _labels in unattributed.samples} == {
            "fabric_frames_offered"
        }

    def test_add_registry_folds_another_registry_in(self):
        fleet = obs.FleetRegistry(self._fleet_fixture())
        meta = _registry()
        meta.counter(
            "nic_frames_received", labels=(("node", "collector-0"),)
        ).inc(1)
        fleet.add_registry(meta)
        assert fleet.node_total("nic_frames_received", "collector-0") == 101

    def test_add_snapshot_folds_a_static_capture_in(self):
        fleet = obs.FleetRegistry(self._fleet_fixture())
        remote = _registry()
        remote.counter(
            "nic_frames_received", labels=(("node", "collector-9"),)
        ).inc(8)
        fleet.add_snapshot(remote.snapshot())
        assert "collector-9" in fleet.nodes()
        assert fleet.node_total("nic_frames_received", "collector-9") == 8

    def test_defaults_to_the_process_registry(self):
        registry = self._fleet_fixture()
        previous = obs.set_registry(registry)
        try:
            assert obs.FleetRegistry().nodes() == [
                "collector-0",
                "collector-1",
            ]
        finally:
            obs.set_registry(previous)

    def test_render_fleet_shape(self):
        snapshot = self._fleet_fixture().snapshot()
        text = obs.render_fleet(snapshot)
        lines = text.splitlines()
        assert lines[0].startswith("== fleet (2 nodes")
        assert any(line.startswith("collector-0") for line in lines)
        assert any(line.startswith("collector-1") for line in lines)
        assert any(line.startswith("(unattributed)") for line in lines)
        assert lines[-1].startswith("(fleet total)")
        # collector-0's row carries its own nic count, not the fleet's.
        row = next(line for line in lines if line.startswith("collector-0"))
        assert " 100 " in f"{row} "

    def test_fleet_rows_are_json_friendly(self):
        rows = obs.fleet_rows(self._fleet_fixture().snapshot())
        assert [row["node"] for row in rows] == ["collector-0", "collector-1"]
        assert rows[0]["nic_frames_received"] == 100
        json.dumps(rows)


class TestSelfTelemetryExporter:
    def test_export_every_must_be_positive(self):
        with pytest.raises(ValueError):
            obs.SelfTelemetryExporter(
                _registry(), obs.EventJournal(), export_every=0
            )

    def test_cadence_merges_skipped_windows(self):
        registry = _registry()
        counter = registry.counter("demo_total")
        exporter = obs.SelfTelemetryExporter(
            registry, obs.EventJournal(), export_every=2
        )
        scraper = obs.MetricsScraper(registry, interval=1)
        exporter.attach(scraper)
        for tick in range(1, 5):
            counter.inc(5)
            scraper.scrape(tick)
        # Scrapes 2 and 4 export; the skipped scrapes' deltas merge in.
        assert exporter.c_exports.value == 2
        assert exporter.local_total("demo_total") == 20
        assert exporter.read_counter("demo_total") == 20

    def test_flush_exports_the_current_window(self):
        registry = _registry()
        registry.counter("demo_total").inc(7)
        exporter = obs.SelfTelemetryExporter(registry, obs.EventJournal())
        assert exporter.read_counter("demo_total") == 0
        exporter.flush(tick=1)
        assert exporter.read_counter("demo_total") == 7

    def test_deltas_group_by_node(self):
        registry = _registry()
        registry.counter("hits", labels=(("node", "collector-0"),)).inc(3)
        registry.counter("hits", labels=(("node", "collector-1"),)).inc(9)
        exporter = obs.SelfTelemetryExporter(registry, obs.EventJournal())
        exporter.flush(tick=1)
        assert exporter.read_counter("hits", node="collector-0") == 3
        assert exporter.read_counter("hits", node="collector-1") == 9
        assert exporter.local_total("hits") == 12

    def test_export_plane_metrics_stay_in_the_meta_registry(self):
        registry = _registry()
        registry.counter("demo_total").inc(3)
        exporter = obs.SelfTelemetryExporter(registry, obs.EventJournal())
        exporter.flush(tick=1)
        exported_names = {name for name, _l in registry.snapshot().samples}
        assert not any(n.startswith("selftel_") for n in exported_names)
        meta_names = {
            name for name, _l in exporter.meta_registry.snapshot().samples
        }
        assert "selftel_exports" in meta_names
        # The telemetry stores' own datapath series landed there too, so
        # the export stream never observes itself ...
        assert any(n.startswith(("nic_", "mem_", "fabric_")) for n in meta_names)
        # ... and a FleetRegistry folds the export plane back into view.
        fleet = obs.FleetRegistry(registry)
        fleet.add_registry(exporter.meta_registry)
        assert fleet.snapshot().total("selftel_exports") == 1

    def test_follow_events_is_incremental(self):
        journal = obs.EventJournal()
        exporter = obs.SelfTelemetryExporter(_registry(), journal)
        journal.record("failover", "one")
        exporter.flush(tick=1)
        assert [e.message for e in exporter.follow_events()] == ["one"]
        journal.record("epoch_bump", "two")
        exporter.flush(tick=2)
        assert [e.message for e in exporter.follow_events()] == ["two"]
        assert exporter.follow_events() == []

    def test_reconcile_exact_over_a_lossless_fabric(self):
        registry = _registry()
        registry.counter("hits", labels=(("node", "n0"),)).inc(42)
        exporter = obs.SelfTelemetryExporter(registry, obs.EventJournal())
        exporter.flush(tick=1)
        report = exporter.reconcile(["hits", "never_exported"])
        assert report["hits"] == {"local": 42, "remote": 42}
        assert report["never_exported"] == {"local": 0, "remote": 0}

    def test_reconcile_bounded_under_impairment(self):
        registry = _registry()
        counter = registry.counter("demo_total")
        exporter = obs.SelfTelemetryExporter(
            registry,
            obs.EventJournal(),
            fabric=ImpairedFabric(InlineFabric(), loss=0.2, seed=11),
        )
        for tick in range(1, 21):
            counter.inc(50)
            exporter.flush(tick=tick)
        report = exporter.reconcile(["demo_total"])["demo_total"]
        assert report["local"] == 1000
        # Loss only ever loses increments: the remote keyspace reads back
        # a lower bound, never an overcount.
        assert report["remote"] is not None
        assert 0 < report["remote"] <= report["local"]


class TestBundles:
    def _engine_fixture(self, registry, journal):
        scraper = obs.MetricsScraper(registry, interval=1)
        engine = obs.SloEngine(scraper, registry)
        engine.add_rule(
            obs.SloRule(
                name="demo-high",
                expr="demo_total",
                comparator=">",
                threshold=5,
                for_ticks=1,
            )
        )
        return scraper, engine

    def test_build_bundle_contents(self):
        registry = _registry()
        journal = obs.EventJournal()
        registry.counter(
            "nic_frames_received", labels=(("node", "collector-0"),)
        ).inc(4)
        journal.advance(17)
        journal.record("failover", "role 0 moved")
        scraper, engine = self._engine_fixture(registry, journal)
        bundle = obs.build_bundle(
            reason="unit", registry=registry, journal=journal, engine=engine
        )
        json.dumps(bundle)  # must be JSON-serialisable as-is
        assert bundle["reason"] == "unit"
        assert bundle["tick"] == 17
        assert bundle["nodes"] == ["collector-0"]
        assert bundle["fleet"][0]["node"] == "collector-0"
        assert bundle["journal"]["events"][0]["kind"] == "failover"
        assert [row["rule"] for row in bundle["alerts"]] == ["demo-high"]
        assert "membership" not in bundle  # no controller wired in

    def test_dump_writes_a_file_and_journals_it(self, tmp_path):
        registry = _registry()
        journal = obs.EventJournal()
        bundler = obs.AutoBundler(tmp_path, registry=registry, journal=journal)
        path = bundler.dump(reason="on-demand", tick=3)
        assert pathlib.Path(path).name == "bundle-0000-on-demand.json"
        bundle = json.loads(pathlib.Path(path).read_text())
        assert bundle["reason"] == "on-demand"
        events = [e for e in journal.events() if e.kind == "bundle"]
        assert len(events) == 1 and events[0].attr("path") == path

    def test_firing_alert_auto_dumps_once(self, tmp_path):
        registry = _registry()
        journal = obs.EventJournal()
        counter = registry.counter("demo_total")
        scraper, engine = self._engine_fixture(registry, journal)
        bundler = obs.AutoBundler(
            tmp_path, registry=registry, journal=journal
        ).install(engine)
        engine.evaluate(1)  # ok
        counter.inc(10)
        engine.evaluate(2)  # pending
        engine.evaluate(3)  # firing -> hook -> dump
        engine.evaluate(4)  # still firing: no second dump
        assert len(bundler.paths) == 1
        bundle = json.loads(pathlib.Path(bundler.paths[0]).read_text())
        assert bundle["reason"] == "alert:demo-high"
        alert = next(
            row for row in bundle["alerts"] if row["rule"] == "demo-high"
        )
        assert alert["state"] == "firing"
        assert alert["transitions"][-1]["state"] == "firing"

    def test_max_bundles_caps_automatic_dumps_only(self, tmp_path):
        registry = _registry()
        journal = obs.EventJournal()
        scraper, engine = self._engine_fixture(registry, journal)
        bundler = obs.AutoBundler(
            tmp_path, registry=registry, journal=journal, max_bundles=1
        ).install(engine)
        bundler._on_fire(engine.alert("demo-high"), 1)
        bundler._on_fire(engine.alert("demo-high"), 2)
        assert len(bundler.paths) == 1  # the cap held
        bundler.dump(reason="manual", tick=3)  # manual dumps always write
        assert len(bundler.paths) == 2


class TestFleetE2E:
    def test_failover_under_impairment_produces_a_postmortem(self, tmp_path):
        """The PR's acceptance scenario, end to end.

        A collector dies under an impaired fabric; the controller fails
        over; an SLO rule watching the failover counter fires; the firing
        alert auto-dumps a bundle whose journal tail tells the story
        (probe failure, then plan apply, with an epoch bump); and the
        exported counter deltas read back one-sided from the telemetry
        keyspace reconcile with the local registry within the loss bound.
        """
        registry = obs.MetricsRegistry(enabled=True)
        journal = obs.EventJournal()
        previous_registry = obs.set_registry(registry)
        previous_journal = obs.set_journal(journal)
        try:
            tree = FatTreeTopology(k=4)
            config = DartConfig(num_collectors=2, slots_per_collector=1 << 10)
            net = PacketLevelIntNetwork(
                tree,
                config,
                fabric=ImpairedFabric(InlineFabric(), loss=0.05, seed=7),
                num_standbys=2,
            )
            # Probes ride the impaired fabric too: fail_after=3 keeps a
            # lost-probe streak on a healthy node from reading as death.
            controller = net.enable_control(fail_after=3, tick_interval=25)
            scraper = obs.MetricsScraper(registry, interval=50)
            net.scraper = scraper
            engine = obs.SloEngine(scraper, registry)
            engine.add_rule(
                obs.SloRule(
                    name="failover-detected",
                    expr="controller_failovers_total",
                    comparator=">",
                    threshold=0,
                    for_ticks=1,
                    description="a collector role moved hosts",
                )
            )
            bundler = obs.AutoBundler(
                tmp_path,
                registry=registry,
                journal=journal,
                engine=engine,
                controller=controller,
            ).install(engine)
            # The telemetry plane rides the same loss regime as the data
            # plane: its fabric is impaired too.
            exporter = obs.SelfTelemetryExporter(
                registry,
                journal,
                fabric=ImpairedFabric(InlineFabric(), loss=0.05, seed=13),
                export_every=1,
            ).attach(scraper)
            scraper.add_observer(lambda tick, _snapshot: engine.evaluate(tick))

            flows = FlowGenerator(
                tree.num_hosts, host_ip=tree.host_ip, seed=3
            ).uniform(600)
            victim = 0
            for index, flow in enumerate(flows):
                if index == 200:
                    net.kill_collector(victim)
                net.send(flow)

            # The failover happened and the SLO saw it.
            assert controller.events, "expected at least one failover"
            alert = engine.alert("failover-detected")
            assert alert.state.value == "firing"

            # The firing alert auto-dumped a postmortem bundle.
            assert bundler.paths, "firing alert must dump a bundle"
            bundle = json.loads(pathlib.Path(bundler.paths[0]).read_text())
            assert bundle["reason"] == "alert:failover-detected"
            fired = next(
                row
                for row in bundle["alerts"]
                if row["rule"] == "failover-detected"
            )
            assert fired["state"] == "firing"

            # The journal tail in the bundle tells the failover story,
            # in causal order: symptom before remedy.
            first_seq = {}
            for event in bundle["journal"]["events"]:
                first_seq.setdefault(event["kind"], event["seq"])
            assert {"probe_failure", "plan_apply", "epoch_bump"} <= set(
                first_seq
            )
            assert first_seq["probe_failure"] < first_seq["plan_apply"]

            # Membership history made it in: the epoch advanced and the
            # victim's failover is on record.
            assert bundle["membership"]["epoch"] >= 1
            assert any(
                row["failed_node"] == victim
                for row in bundle["membership"]["failovers"]
            )
            assert any(
                node.startswith("collector-") for node in bundle["nodes"]
            )

            # Counter deltas are readable both locally and one-sided from
            # the telemetry keyspace, reconciling within the loss bound.
            exporter.flush(tick=net.packets_sent)
            report = exporter.reconcile(
                ["nic_frames_received", "controller_failovers_total"]
            )
            nic = report["nic_frames_received"]
            assert nic["local"] > 0
            assert nic["remote"] is not None
            assert nic["remote"] <= nic["local"]
            assert nic["remote"] >= int(nic["local"] * 0.7)
            failovers = report["controller_failovers_total"]
            assert failovers["local"] == len(controller.events)

            # And the flight recorder itself is tailable over the wire.
            remote_events = exporter.follow_events()
            assert remote_events
            from repro.obs.journal import KNOWN_KINDS

            assert {e.kind for e in remote_events} <= set(KNOWN_KINDS)
        finally:
            obs.set_registry(previous_registry)
            obs.set_journal(previous_journal)


class TestBundleTraces:
    def test_bundle_embeds_kept_traces_and_critical_paths(self):
        registry = _registry()
        tracer = obs.Tracer()
        previous = obs.set_tracer(tracer)
        try:
            trace_id = tracer.begin("append", key="doomed")
            tracer.span(trace_id, "append.reserve")
            tracer.span(trace_id, "append.reserve.retry", status="retry")
            tracer.end(trace_id)
            bundle = obs.build_bundle(
                reason="unit", registry=registry, journal=obs.EventJournal()
            )
            json.dumps(bundle)  # must stay JSON-serialisable
            traces = bundle["traces"]
            assert traces["kept"] == 1
            assert traces["sealed"] == 1
            rows = traces["records"]
            assert rows[0]["trace_id"] == trace_id
            assert "status:retry" in rows[0]["keep_reasons"]
            summary = traces["critical_paths"][0]
            assert summary["trace_id"] == trace_id
            assert summary["complete"] is True
        finally:
            obs.set_tracer(previous)

    def test_bundle_omits_traces_section_when_nothing_kept(self):
        registry = _registry()
        tracer = obs.Tracer()
        previous = obs.set_tracer(tracer)
        try:
            clean = tracer.begin("report")
            tracer.end(clean)
            bundle = obs.build_bundle(
                reason="unit", registry=registry, journal=obs.EventJournal()
            )
            assert "traces" not in bundle
        finally:
            obs.set_tracer(previous)
