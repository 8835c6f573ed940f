"""Tests for repro.obs.health plus fabric/queue observability regressions."""

import numpy as np

from repro.core.config import DartConfig
from repro.core.policies import ReturnPolicy
from repro.collector.store import DartStore
from repro.fabric.fabric import BufferedFabric, Fabric, InlineFabric
from repro.fabric.impaired import ImpairedFabric
from repro.mem.region import MemoryRegion
from repro.obs.health import PipelineHealth, render_dashboard, render_histogram
from repro.rdma.frames import FrameBatch

from .rigs import RecordingPort, fresh_registry


class TestPipelineHealthRates:
    def test_rates_reconcile_with_fabric_counters(self):
        registry, restore = fresh_registry()
        try:
            fabric = ImpairedFabric(
                InlineFabric(), loss=0.2, duplication=0.1, seed=7
            )
            fabric.attach(1, RecordingPort())
            for index in range(200):
                fabric.send(1, b"frame-%03d" % index)
            fabric.flush()
            health = PipelineHealth.from_registry(registry)
            counters = fabric.counters
            assert health.impairment_offered == 200
            assert health.frames_lost == counters.frames_dropped_loss
            assert health.frames_lost > 0
            assert health.loss_rate == counters.frames_dropped_loss / 200
            assert health.duplication_rate == counters.frames_duplicated / 200
            # Every delivered frame reached the port: delta must be... well,
            # the RecordingPort here is not a NIC, so nic_frames_received is 0 and
            # the delivered count belongs to the inner fabric.
            assert health.frames_delivered == fabric.delivered.frames_delivered
            assert (
                health.frames_delivered
                == 200
                - counters.frames_dropped_loss
                + counters.frames_duplicated
            )
        finally:
            restore()

    def test_impairment_offered_falls_back_to_all_offered(self):
        registry, restore = fresh_registry()
        try:
            fabric = InlineFabric()
            fabric.attach(1, RecordingPort())
            for _ in range(10):
                fabric.send(1, b"frame")
            health = PipelineHealth.from_registry(registry)
            assert health.impairment_offered == 10
            assert health.loss_rate == 0.0
            assert health.delivery_rate == 0.0  # no NIC attached here
        finally:
            restore()

    def test_slot_overwrite_rate(self):
        registry, restore = fresh_registry()
        try:
            region = MemoryRegion(size=64)
            region.write_offset(0, b"\x01" * 8)   # fresh slot
            region.write_offset(0, b"\x02" * 8)   # overwrites live data
            region.write_offset(16, b"\x03" * 8)  # fresh slot
            health = PipelineHealth.from_registry(registry)
            assert health.mem_writes == 3
            assert health.mem_slot_overwrites == 1
            assert health.slot_overwrite_rate == 1 / 3
        finally:
            restore()

    def test_query_success_split_per_policy(self):
        registry, restore = fresh_registry()
        try:
            config = DartConfig(slots_per_collector=256, redundancy=2, seed=0)
            store = DartStore(config)
            store.put(("flow", 1), b"value")
            store.get(("flow", 1))  # answered, PLURALITY
            store.get(("flow", 2))  # empty, PLURALITY
            store.get(("flow", 1), policy=ReturnPolicy.FIRST_MATCH)
            health = PipelineHealth.from_registry(registry)
            by_policy = {q.policy: q for q in health.queries}
            assert by_policy["PLURALITY"].total == 2
            assert by_policy["PLURALITY"].answered == 1
            assert by_policy["PLURALITY"].success_rate == 0.5
            assert by_policy["FIRST_MATCH"].total == 1
            assert by_policy["FIRST_MATCH"].success_rate == 1.0
            assert health.to_dict()["queries"]["PLURALITY"]["total"] == 2
        finally:
            restore()

    def test_zero_queries_report_none_not_zero_division(self):
        registry, restore = fresh_registry()
        try:
            # A policy with registered counters but zero traffic: the
            # success rate must read None ("no data"), never divide by
            # zero or claim 0.0 ("everything failed").
            registry.counter(
                "queries_total", labels={"policy": "PLURALITY"}
            ).inc(0)
            registry.counter(
                "queries_answered", labels={"policy": "PLURALITY"}
            ).inc(0)
            health = PipelineHealth.from_registry(registry)
            by_policy = {q.policy: q for q in health.queries}
            assert by_policy["PLURALITY"].success_rate is None
            assert health.to_dict()["queries"]["PLURALITY"]["success_rate"] is None
            text = render_dashboard(registry)
            assert "success_rate=n/a" in text
        finally:
            restore()

    def test_end_to_end_packet_level_reconciliation(self):
        """Fabric-delivered and NIC-received must agree after a flush."""
        registry, restore = fresh_registry()
        try:
            config = DartConfig(slots_per_collector=512, redundancy=2, seed=0)
            fabric = ImpairedFabric(
                BufferedFabric(flush_threshold=32), loss=0.05, seed=3
            )
            store = DartStore(config, packet_level=True, fabric=fabric)
            for i in range(100):
                store.put(("flow", i), b"v%d" % i)
            fabric.flush()
            health = PipelineHealth.from_registry(registry)
            assert health.fabric_nic_delta == 0
            assert health.nic_frames_received == health.frames_delivered
            assert health.frames_lost > 0
            assert health.mem_writes == health.nic_writes_executed
        finally:
            restore()

    def test_columnar_packet_level_reconciliation(self):
        """The columnar batch seam reconciles under a fully impaired,
        buffered fabric exactly like the scalar path: every frame the
        fabric claims to have delivered was received by a NIC, and every
        executed write landed in a region."""
        registry, restore = fresh_registry()
        try:
            config = DartConfig(slots_per_collector=512, redundancy=2, seed=0)
            fabric = ImpairedFabric(
                BufferedFabric(flush_threshold=32),
                loss=0.05,
                duplication=0.05,
                reordering=0.1,
                seed=3,
            )
            store = DartStore(config, packet_level=True, fabric=fabric)
            store.put_many(
                [(("flow", i), b"v%d" % i) for i in range(100)]
            )
            fabric.flush()
            health = PipelineHealth.from_registry(registry)
            assert health.impairment_offered == 200
            assert health.frames_lost > 0
            counters = fabric.counters
            assert health.frames_lost == counters.frames_dropped_loss
            assert counters.frames_duplicated > 0
            assert counters.frames_reordered > 0
            # Conservation through the batch seam: offered frames either
            # dropped in flight or delivered (duplicates add deliveries).
            assert (
                fabric.delivered.frames_delivered
                == 200
                - counters.frames_dropped_loss
                + counters.frames_duplicated
            )
            assert health.fabric_nic_delta == 0
            assert health.nic_frames_received == health.frames_delivered
            assert health.mem_writes == health.nic_writes_executed
        finally:
            restore()


class TestDashboardRendering:
    def test_dashboard_sections_present(self):
        registry, restore = fresh_registry()
        try:
            fabric = InlineFabric()
            fabric.attach(1, RecordingPort())
            fabric.send(1, b"frame")
            text = render_dashboard(registry)
            assert "== pipeline health ==" in text
            assert "frame loss rate" in text
            assert "== query success rate ==" in text
            assert "(no queries executed)" in text
        finally:
            restore()

    def test_render_histogram_elides_empty_buckets(self):
        registry, restore = fresh_registry()
        try:
            histogram = registry.histogram("h", buckets=(1.0, 2.0, 5.0))
            histogram.observe(0.5)
            histogram.observe(0.5)
            text = render_histogram(histogram)
            assert "count=2" in text
            assert "<= 1" in text
            assert "<= 2" not in text  # empty bucket elided
        finally:
            restore()


class TestEveryFabricCountsDeliveries:
    def test_every_fabric_subclass_increments_shared_delivered_total(self):
        """Meta-test: each concrete Fabric must account delivered frames in
        the shared ``fabric_frames_delivered`` family (ImpairedFabric via
        the inner fabric it delegates delivery to)."""
        subclasses = set(Fabric.__subclasses__())
        assert {InlineFabric, BufferedFabric, ImpairedFabric} <= subclasses
        for cls in sorted(subclasses, key=lambda c: c.__name__):
            registry, restore = fresh_registry()
            try:
                try:
                    fabric = cls()
                except TypeError:
                    fabric = cls(InlineFabric())
                fabric.attach(1, RecordingPort())
                fabric.send(1, b"meta-test-frame")
                fabric.flush()
                delivered = registry.total("fabric_frames_delivered")
                assert delivered >= 1, (
                    f"{cls.__name__} delivered a frame without incrementing "
                    f"fabric_frames_delivered"
                )
                assert registry.total("fabric_frames_offered") >= 1
            finally:
                restore()

    def test_every_fabric_subclass_accounts_batch_deliveries(self):
        """Meta-test: the columnar ``send_batch`` seam must account frames
        in the same shared families as the scalar path, for every concrete
        Fabric (ImpairedFabric via the inner fabric it delegates to)."""
        subclasses = set(Fabric.__subclasses__())
        assert {InlineFabric, BufferedFabric, ImpairedFabric} <= subclasses
        for cls in sorted(subclasses, key=lambda c: c.__name__):
            registry, restore = fresh_registry()
            try:
                try:
                    fabric = cls()
                except TypeError:
                    fabric = cls(InlineFabric())
                fabric.attach(1, RecordingPort())
                batch = FrameBatch(
                    np.zeros((3, 16), dtype=np.uint8),
                    np.ones(3, dtype=np.int64),
                )
                fabric.send_batch(batch)
                fabric.flush()
                assert registry.total("fabric_frames_offered") >= 3, (
                    f"{cls.__name__}.send_batch did not account offered "
                    f"frames in fabric_frames_offered"
                )
                assert registry.total("fabric_frames_delivered") >= 3, (
                    f"{cls.__name__}.send_batch delivered frames without "
                    f"incrementing fabric_frames_delivered"
                )
            finally:
                restore()


class TestBufferedFabricQueueObservability:
    def test_flush_at_exactly_threshold_frames(self):
        """Regression: the threshold boundary itself must trigger a flush."""
        registry, restore = fresh_registry()
        try:
            threshold = 8
            fabric = BufferedFabric(flush_threshold=threshold)
            port = RecordingPort()
            fabric.attach(1, port)
            for index in range(threshold - 1):
                fabric.send(1, b"frame-%d" % index)
            assert fabric.pending() == threshold - 1
            assert fabric.counters.flushes == 0
            fabric.send(1, b"frame-last")  # exactly `threshold` queued
            assert fabric.pending() == 0
            assert len(port.frames) == threshold
            assert fabric.counters.flushes == 1
            assert fabric.last_flush_depth == threshold
            assert fabric.queue_depth_high_water == threshold
            assert registry.total("fabric_queue_depth_hwm") == threshold
        finally:
            restore()

    def test_high_water_mark_survives_flush(self):
        _registry, restore = fresh_registry()
        try:
            fabric = BufferedFabric(flush_threshold=None)
            fabric.attach(1, RecordingPort())
            for index in range(5):
                fabric.send(1, b"frame-%d" % index)
            assert fabric.queue_depth_high_water == 5
            fabric.flush()
            assert fabric.pending() == 0
            assert fabric.queue_depth_high_water == 5  # HWM is sticky
            assert fabric.last_flush_depth == 5
            fabric.send(1, b"one-more")
            assert fabric.queue_depth_high_water == 5  # 1 < 5
        finally:
            restore()

    def test_send_batch_threshold_and_hwm(self):
        _registry, restore = fresh_registry()
        try:
            fabric = BufferedFabric(flush_threshold=4)
            port = RecordingPort()
            fabric.attach(1, port)
            fabric.send_batch(
                FrameBatch(
                    np.frombuffer(b"abcde", dtype=np.uint8).reshape(5, 1),
                    np.ones(5, dtype=np.int64),
                )
            )
            assert fabric.pending() == 0
            assert len(port.frames) == 5
            assert fabric.counters.flushes == 1
            assert fabric.queue_depth_high_water == 5
        finally:
            restore()
