"""Tests for switch-side event detection (repro.switch.event_detection)."""

import pytest

from repro.switch.event_detection import ChangeDetector, suppression_rows


class TestChangeDetector:
    def test_first_observation_reports(self):
        detector = ChangeDetector(cache_lines=1 << 10)
        assert detector.observe(b"flow", b"value-1")

    def test_unchanged_value_suppressed(self):
        detector = ChangeDetector(cache_lines=1 << 10)
        detector.observe(b"flow", b"value-1")
        for _ in range(10):
            assert not detector.observe(b"flow", b"value-1")
        assert detector.stats.packets_observed == 11
        assert detector.stats.reports_triggered == 1

    def test_changed_value_reports(self):
        detector = ChangeDetector(cache_lines=1 << 10)
        detector.observe(b"flow", b"value-1")
        assert detector.observe(b"flow", b"value-2")
        assert not detector.observe(b"flow", b"value-2")
        assert detector.observe(b"flow", b"value-1")  # changed back

    def test_flows_track_their_own_values(self):
        detector = ChangeDetector(cache_lines=1 << 12)
        assert detector.observe(b"flow-a", b"x")
        assert detector.observe(b"flow-b", b"x")  # same value, other flow
        assert not detector.observe(b"flow-a", b"x")
        assert detector.observe(b"flow-b", b"y")
        assert not detector.observe(b"flow-a", b"x")
        assert detector.stats.reports_triggered == 3

    def test_cache_collision_causes_spurious_reports(self):
        """Two flows in one line evict each other -- extra reports, never
        silently dropped changes."""
        detector = ChangeDetector(cache_lines=1)  # everything collides
        detector.observe(b"flow-a", b"x")
        detector.observe(b"flow-b", b"y")
        # flow-a's digest was evicted, so its unchanged value re-reports.
        assert detector.observe(b"flow-a", b"x")

    def test_suppression_ratio(self):
        detector = ChangeDetector(cache_lines=1 << 10)
        detector.observe(b"f", b"v")
        for _ in range(99):
            detector.observe(b"f", b"v")
        assert detector.stats.suppression_ratio == pytest.approx(100.0)

    def test_sram_accounting(self):
        assert ChangeDetector(cache_lines=1024).sram_bytes == 4096

    @pytest.mark.parametrize(
        "kwargs",
        [{"cache_lines": 0}, {"digest_bits": 0}, {"digest_bits": 32}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ChangeDetector(**kwargs)


class TestSuppressionExperiment:
    def test_big_cache_approaches_ideal(self):
        rows = suppression_rows(
            num_flows=500,
            packets_per_flow=40,
            change_every=10,
            cache_lines_options=(1 << 6, 1 << 14),
        )
        small, big = rows[0], rows[-1]
        # Bigger caches suppress more (fewer collision-driven reports).
        assert big["reports"] < small["reports"]
        # And approach the ideal change-only report count.
        assert big["report_inflation_vs_ideal"] < 1.3
        assert small["report_inflation_vs_ideal"] > big["report_inflation_vs_ideal"]

    def test_suppression_is_orders_of_magnitude(self):
        """The section-2 premise: per-packet telemetry collapses to a few
        reports per flow."""
        rows = suppression_rows(
            num_flows=300,
            packets_per_flow=100,
            change_every=25,
            cache_lines_options=(1 << 14,),
        )
        # Ideal suppression here is 100 packets / 5 reports = 20x; a large
        # cache should achieve most of it.
        assert rows[0]["suppression_ratio"] > 12
