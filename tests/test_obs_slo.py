"""Tests for repro.obs.slo: rules, alert lifecycle, conformance watchdogs."""

import pytest

from repro import obs
from repro.core import theory
from repro.core.config import DartConfig
from repro.core.policies import ReturnPolicy
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    Alert,
    AlertState,
    SloEngine,
    SloRule,
    conformance_rules,
    default_rules,
    expected_success,
)
from repro.obs.timeseries import MetricsScraper


def _engine(registry=None):
    """A fresh (registry, scraper, engine) triple for lifecycle tests."""
    registry = registry if registry is not None else MetricsRegistry()
    scraper = MetricsScraper(registry)
    return registry, scraper, SloEngine(scraper, registry)


class TestSloRule:
    def test_unknown_comparator_rejected(self):
        with pytest.raises(ValueError):
            SloRule(name="r", expr="x", comparator="~", threshold=1)

    def test_for_ticks_must_be_positive(self):
        with pytest.raises(ValueError):
            SloRule(name="r", expr="x", comparator=">", threshold=1, for_ticks=0)

    def test_none_never_breaches(self):
        rule = SloRule(name="r", expr="x", comparator=">", threshold=0)
        assert not rule.breached(None)
        assert rule.breached(1.0)

    def test_bare_metric_expr_reads_registry_total(self):
        registry, scraper, engine = _engine()
        registry.counter("events", labels={"kind": "a"}).inc(2)
        registry.counter("events", labels={"kind": "b"}).inc(3)
        engine.add_rule(
            SloRule(name="r", expr="events", comparator=">=", threshold=5)
        )
        scraper.scrape(1)
        engine.evaluate(1)
        assert engine.alert("r").value == 5.0
        assert engine.alert("r").firing

    def test_health_expr_reads_pipeline_health(self):
        registry, scraper, engine = _engine()
        registry.counter("mem_writes").inc(10)
        registry.counter("mem_slot_overwrites").inc(5)
        engine.add_rule(
            SloRule(
                name="overwrites",
                expr="health.slot_overwrite_rate",
                comparator=">",
                threshold=0.4,
            )
        )
        scraper.scrape(1)
        engine.evaluate(1)
        assert engine.alert("overwrites").value == 0.5
        assert engine.alert("overwrites").firing

    def test_rate_and_delta_exprs_read_scraper_window(self):
        registry, scraper, engine = _engine()
        counter = registry.counter("events")
        engine.add_rule(
            SloRule(name="d", expr="delta(events)", comparator=">", threshold=5)
        )
        engine.add_rule(
            SloRule(name="v", expr="rate(events)", comparator=">", threshold=3)
        )
        counter.inc(1)
        scraper.scrape(0)
        engine.evaluate(0)
        # One scrape: no window yet, deltas are 0, nothing breaches.
        assert not engine.alert("d").firing
        counter.inc(8)
        scraper.scrape(2)
        engine.evaluate(2)
        assert engine.alert("d").value == 8.0
        assert engine.alert("d").firing
        assert engine.alert("v").value == 4.0
        assert engine.alert("v").firing

    def test_rate_expr_without_series_is_none(self):
        registry, scraper, engine = _engine()
        engine.add_rule(
            SloRule(name="r", expr="rate(ghost)", comparator=">", threshold=0)
        )
        scraper.scrape(1)
        engine.evaluate(1)
        assert engine.alert("r").value is None
        assert engine.alert("r").state is AlertState.OK

    def test_callable_expr_sees_context(self):
        registry, scraper, engine = _engine()
        engine.add_rule(
            SloRule(
                name="tick",
                expr=lambda ctx: float(ctx.tick),
                comparator=">=",
                threshold=3,
            )
        )
        scraper.scrape(3)
        engine.evaluate(3)
        assert engine.alert("tick").firing


class TestAlertLifecycle:
    def _rule(self, for_ticks=2):
        return SloRule(
            name="r", expr="x", comparator=">", threshold=0, for_ticks=for_ticks
        )

    def test_pending_then_firing_then_resolved(self):
        alert = Alert(rule=self._rule(for_ticks=2))
        alert.observe(1, 1.0, True)
        assert alert.state is AlertState.PENDING
        assert alert.pending_since == 1
        alert.observe(2, 1.0, True)
        assert alert.state is AlertState.FIRING
        assert alert.fired_at == 2
        alert.observe(3, 0.0, False)
        assert alert.state is AlertState.RESOLVED
        assert alert.transitions == [
            (1, AlertState.PENDING),
            (2, AlertState.FIRING),
            (3, AlertState.RESOLVED),
        ]

    def test_streak_reset_keeps_pending_from_firing(self):
        alert = Alert(rule=self._rule(for_ticks=3))
        alert.observe(1, 1.0, True)
        alert.observe(2, 1.0, True)
        alert.observe(3, 0.0, False)  # streak broken before for_ticks
        assert alert.state is AlertState.OK
        alert.observe(4, 1.0, True)
        assert alert.state is AlertState.PENDING
        assert alert.pending_since == 4
        assert alert.fired_at is None

    def test_for_ticks_one_fires_immediately(self):
        alert = Alert(rule=self._rule(for_ticks=1))
        alert.observe(1, 2.0, True)
        assert alert.state is AlertState.FIRING

    def test_resolved_can_refire(self):
        alert = Alert(rule=self._rule(for_ticks=1))
        alert.observe(1, 1.0, True)
        alert.observe(2, 0.0, False)
        assert alert.state is AlertState.RESOLVED
        alert.observe(3, 0.0, False)
        assert alert.state is AlertState.RESOLVED
        alert.observe(4, 1.0, True)
        assert alert.state is AlertState.FIRING

    def test_render_mentions_state_and_rule(self):
        alert = Alert(rule=self._rule(for_ticks=1))
        alert.observe(1, 1.5, True)
        text = alert.render()
        assert "firing" in text
        assert "r" in text
        assert "1.5" in text


class TestSloEngine:
    def test_duplicate_rule_names_rejected(self):
        _registry, _scraper, engine = _engine()
        engine.add_rule(SloRule(name="r", expr="x", comparator=">", threshold=0))
        with pytest.raises(ValueError):
            engine.add_rule(
                SloRule(name="r", expr="y", comparator=">", threshold=0)
            )

    def test_gauges_mirror_alert_states_into_registry(self):
        registry, scraper, engine = _engine()
        registry.counter("events").inc()
        engine.add_rule(
            SloRule(
                name="fires-slowly",
                expr="events",
                comparator=">",
                threshold=0,
                for_ticks=2,
            )
        )
        scraper.scrape(1)
        engine.evaluate(1)
        assert registry.total("alerts_pending") == 1.0
        assert registry.total("alerts_firing") == 0.0
        scraper.scrape(2)
        engine.evaluate(2)
        assert registry.total("alerts_pending") == 0.0
        assert registry.total("alerts_firing") == 1.0
        assert "repro_alerts_firing 1" in registry.to_prometheus()

    def test_render_sorts_firing_first(self):
        registry, scraper, engine = _engine()
        registry.counter("events").inc()
        engine.add_rule(
            SloRule(name="zz-hot", expr="events", comparator=">", threshold=0)
        )
        engine.add_rule(
            SloRule(name="aa-cold", expr="events", comparator=">", threshold=99)
        )
        scraper.scrape(1)
        engine.evaluate(1)
        text = engine.render()
        assert "1 firing" in text
        assert text.index("zz-hot") < text.index("aa-cold")

    def test_default_rules_cover_the_pr1_invariants(self):
        names = {rule.name for rule in default_rules()}
        assert names == {
            "frame-loss-rate",
            "nic-drops",
            "fabric-nic-reconciliation",
        }


class TestConformance:
    def test_expected_success_matches_theory(self):
        config = DartConfig(slots_per_collector=4096, redundancy=2)
        keys = 512
        expected = expected_success(config, keys)
        assert expected == pytest.approx(
            float(theory.average_queryability(config.load_factor(keys), 2))
        )

    def test_conformance_none_until_min_queries(self):
        registry, scraper, engine = _engine()
        config = DartConfig(slots_per_collector=1024, redundancy=2)
        engine.add_rules(conformance_rules(config))
        registry.counter("store_puts").inc(10)
        labels = {"policy": "PLURALITY"}
        registry.counter("queries_total", labels=labels).inc(5)
        registry.counter("queries_answered", labels=labels).inc(1)
        scraper.scrape(1)
        engine.evaluate(1)
        alert = engine.alert("conformance-PLURALITY")
        assert alert.value is None  # below min_queries: no data, no flap
        assert alert.state is AlertState.OK

    def test_conformance_breaches_on_measured_shortfall(self):
        registry, scraper, engine = _engine()
        config = DartConfig(slots_per_collector=4096, redundancy=2)
        engine.add_rules(conformance_rules(config, for_ticks=1))
        registry.counter("store_puts").inc(256)
        labels = {"policy": "PLURALITY"}
        registry.counter("queries_total", labels=labels).inc(100)
        registry.counter("queries_answered", labels=labels).inc(50)
        scraper.scrape(1)
        engine.evaluate(1)
        alert = engine.alert("conformance-PLURALITY")
        # Model predicts ~0.97 at alpha 0.0625; measured 0.5.
        assert alert.value == pytest.approx(
            expected_success(config, 256) - 0.5
        )
        assert alert.firing


def _run_pipeline(fabric, config, rounds=2, keys_per_round=192):
    """Drive a packet-level store over ``fabric`` and evaluate conformance.

    Returns (registry, engine) after ``rounds`` put/query/scrape/evaluate
    cycles -- the acceptance harness for the paper-model watchdog.
    """
    from repro.collector.store import DartStore

    registry = obs.MetricsRegistry()
    previous = obs.set_registry(registry)
    try:
        store = DartStore(config, packet_level=True, fabric=fabric)
        scraper = MetricsScraper(registry)
        engine = SloEngine(scraper, registry)
        engine.add_rules(conformance_rules(config))
        for tick in range(1, rounds + 1):
            base = (tick - 1) * keys_per_round
            chunk = [
                ("10.0.0.1", f"10.0.1.{i % 250}", 6000 + base + i, 80, 6)
                for i in range(keys_per_round)
            ]
            store.put_many(
                (key, f"v{base + i}".encode()) for i, key in enumerate(chunk)
            )
            store.fabric.flush()
            for key in chunk:
                store.get(key, policy=ReturnPolicy.PLURALITY)
            scraper.scrape(tick)
            engine.evaluate(tick)
        return registry, engine
    finally:
        obs.set_registry(previous)


class TestConformanceAcceptance:
    CONFIG = dict(slots_per_collector=4096, redundancy=2, seed=5)

    def test_lossy_fabric_drives_pending_then_firing(self):
        from repro.fabric.fabric import InlineFabric
        from repro.fabric.impaired import ImpairedFabric

        config = DartConfig(**self.CONFIG)
        fabric = ImpairedFabric(InlineFabric(), loss=0.5, seed=5)
        registry, engine = _run_pipeline(fabric, config)
        alert = engine.alert("conformance-PLURALITY")
        # Losing half the frames floors measured success around
        # (1 - loss^2) while the model stays ~0.97: a clear breach, walked
        # pending -> firing across the two evaluation rounds.
        assert alert.transitions == [
            (1, AlertState.PENDING),
            (2, AlertState.FIRING),
        ]
        assert alert.firing
        assert alert.value > 0.1
        assert registry.total("alerts_firing") >= 1.0
        assert "repro_alerts_firing 1" in registry.to_prometheus()

    def test_clean_fabric_stays_ok(self):
        from repro.fabric.fabric import InlineFabric

        config = DartConfig(**self.CONFIG)
        registry, engine = _run_pipeline(InlineFabric(), config)
        alert = engine.alert("conformance-PLURALITY")
        # No impairment: measured success tracks the model inside the
        # tolerance band, so the alert never leaves OK.
        assert alert.state is AlertState.OK
        assert alert.transitions == []
        assert alert.value is not None
        assert abs(alert.value) < 0.1
        assert registry.total("alerts_firing") == 0.0
        assert "repro_alerts_firing 0" in registry.to_prometheus()


class TestTraceRetentionOnFire:
    def test_firing_transition_tail_retains_live_traces(self):
        registry, scraper, engine = _engine()
        tracer = obs.Tracer()
        previous = obs.set_tracer(tracer)
        try:
            trace_id = tracer.begin("append", key="inflight")
            tracer.span(trace_id, "append.reserve")
            registry.counter("events").inc(10)
            engine.add_rule(
                SloRule(
                    name="event-burst", expr="events",
                    comparator=">=", threshold=5,
                )
            )
            scraper.scrape(1)
            engine.evaluate(1)
            assert engine.alert("event-burst").firing
            tracer.end(trace_id)
            record = tracer.trace(trace_id)
            assert "slo:event-burst" in record.keep_reasons
            assert record in tracer.kept()
            # Still-firing ticks are not new transitions: a trace begun
            # after the transition is not retroactively tagged.
            later = tracer.begin("append", key="later")
            tracer.span(later, "append.reserve")
            scraper.scrape(2)
            engine.evaluate(2)
            tracer.end(later)
            assert "slo:event-burst" not in tracer.trace(later).keep_reasons
        finally:
            obs.set_tracer(previous)
