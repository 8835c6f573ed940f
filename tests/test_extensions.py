"""Tests for the section-7 / future-work extensions:
the packet-level CAS store and the dynamic-N controller."""

import pytest

from repro.core import theory
from repro.core.cas_store import (
    CasDartStore,
    pack_compact_slot,
    unpack_compact_slot,
)
from repro.core.config import DartConfig
from repro.core.dynamic_n import DynamicRedundancyController, LoadEstimator


class TestCompactSlotCodec:
    def test_roundtrip(self):
        word = pack_compact_slot(0xABCDEF, 0x12345678AB)
        assert unpack_compact_slot(word) == (0xABCDEF, 0x12345678AB)

    def test_bounds(self):
        with pytest.raises(ValueError):
            pack_compact_slot(1 << 24, 0)
        with pytest.raises(ValueError):
            pack_compact_slot(0, 1 << 40)
        with pytest.raises(ValueError):
            pack_compact_slot(-1, 0)


class TestCasDartStore:
    def test_put_get_roundtrip(self):
        store = CasDartStore(num_slots=1 << 10)
        store.put(b"flow-1", 12345)
        store.put(b"flow-2", 67890)
        assert store.get(b"flow-1") == 12345
        assert store.get(b"flow-2") == 67890
        assert store.get(b"missing") is None

    def test_uses_real_atomics(self):
        store = CasDartStore(num_slots=1 << 10)
        store.put(b"k", 1)
        assert store.nic.counters.writes_executed == 1
        assert store.nic.counters.atomics_executed == 1

    def test_cas_slot_not_overwritten_by_later_cas(self):
        """The CAS copy keeps the *first* writer's data until a plain
        WRITE lands on it."""
        store = CasDartStore(num_slots=4)  # tiny: force collisions
        # Find two keys whose CAS copies collide but WRITE copies differ.
        keys = [b"k%d" % i for i in range(200)]
        target = None
        for a in keys:
            for b in keys:
                if a == b:
                    continue
                if (
                    store.addressing.slot_index(a, 1)
                    == store.addressing.slot_index(b, 1)
                    and store.addressing.slot_index(b, 0)
                    != store.addressing.slot_index(a, 1)
                    and store.addressing.slot_index(a, 0)
                    != store.addressing.slot_index(a, 1)
                ):
                    target = (a, b)
                    break
            if target:
                break
        assert target is not None
        first, second = target
        store.put(first, 111)
        store.put(second, 222)
        # first's CAS slot still holds first's data; second can still be
        # read through its WRITE slot.
        assert store.get(first) == 111
        assert store.get(second) == 222

    def test_update_through_write_slot(self):
        store = CasDartStore(num_slots=1 << 10)
        store.put(b"k", 1)
        store.put(b"k", 2)
        assert store.get(b"k") == 2  # WRITE slot is fresh

    def test_value_range_enforced(self):
        store = CasDartStore(num_slots=64)
        with pytest.raises(ValueError):
            store.put(b"k", 1 << 40)

    def test_validation(self):
        with pytest.raises(ValueError):
            CasDartStore(num_slots=0)


class TestLoadEstimator:
    def test_first_observation_unsmoothed(self):
        estimator = LoadEstimator(total_slots=1000)
        assert estimator.observe(500) == 0.5

    def test_ewma_smoothing(self):
        estimator = LoadEstimator(total_slots=1000, alpha_weight=0.5)
        estimator.observe(1000)  # 1.0
        assert estimator.observe(0) == pytest.approx(0.5)
        assert estimator.observe(0) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadEstimator(total_slots=0)
        with pytest.raises(ValueError):
            LoadEstimator(total_slots=10, alpha_weight=0.0)
        with pytest.raises(ValueError):
            LoadEstimator(total_slots=10).observe(-1)


class TestDynamicRedundancyController:
    def make(self, redundancy=4, slots=1000, **kwargs):
        config = DartConfig(redundancy=redundancy, slots_per_collector=slots)
        return DynamicRedundancyController(config, **kwargs)

    def test_starts_at_maximum_protection(self):
        assert self.make(redundancy=4).current == 4

    def test_light_load_keeps_high_n(self):
        controller = self.make(redundancy=4)
        for _ in range(5):
            n = controller.observe_interval(20)  # alpha = 0.02
        assert n == 4

    def test_heavy_load_drops_to_n1(self):
        controller = self.make(redundancy=4)
        for _ in range(10):
            n = controller.observe_interval(3000)  # alpha -> 3.0
        assert n == 1
        assert controller.switches >= 1

    def test_recommendation_matches_theory(self):
        controller = self.make(redundancy=8, candidates=(1, 2, 3, 4, 8))
        for alpha in (0.05, 0.5, 1.5, 3.0):
            assert controller.recommend(alpha) == theory.optimal_redundancy(
                alpha, (1, 2, 3, 4, 8)
            )

    def test_hysteresis_prevents_thrash(self):
        """Near a crossover, tiny load wobbles must not flip N every
        interval."""
        controller = self.make(redundancy=4, hysteresis=0.05)
        # Feed loads oscillating around a crossover point.
        switches_before = controller.switches
        for i in range(20):
            controller.observe_interval(900 + (i % 2) * 50)
        assert controller.switches - switches_before <= 1

    def test_candidates_validated(self):
        with pytest.raises(ValueError):
            self.make(redundancy=2, candidates=(1, 2, 3))
        with pytest.raises(ValueError):
            self.make(candidates=())
        with pytest.raises(ValueError):
            self.make(hysteresis=-0.1)

    def test_predicted_queryability(self):
        controller = self.make(redundancy=4)
        controller.observe_interval(100)
        predicted = controller.predicted_queryability()
        assert 0 <= predicted <= 1

    def test_adaptive_beats_static_across_load_ramp(self):
        """The future-work claim: adjusting N as load fluctuates improves
        queryability over any single static N (averaged across the ramp)."""
        loads = [0.05, 0.1, 0.3, 0.8, 1.5, 2.5]
        candidates = (1, 2, 4)
        adaptive = sum(
            theory.average_queryability(a, theory.optimal_redundancy(a, candidates))
            for a in loads
        )
        for static_n in candidates:
            static = sum(
                theory.average_queryability(a, static_n) for a in loads
            )
            assert adaptive >= static - 1e-12
