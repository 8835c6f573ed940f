"""Tests for DartConfig (repro.core.config)."""

import pytest

from repro.core.config import DartConfig
from repro.mem.slots import SlotLayout


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"redundancy": 0},
            {"checksum_bits": 0},
            {"checksum_bits": 65},
            {"value_bytes": 0},
            {"slots_per_collector": 0},
            {"num_collectors": 0},
            {"seed": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DartConfig(**kwargs)

    def test_defaults_match_paper_suggestions(self):
        config = DartConfig()
        assert config.redundancy == 2  # section 5.1: N=2 a good compromise
        assert config.checksum_bits == 32  # section 4 default suggestion
        assert config.value_bytes == 20  # 160-bit values (Figure 4)


class TestDerived:
    def test_slot_and_region_sizes(self):
        config = DartConfig(slots_per_collector=1000)
        assert config.slot_bytes == 24  # 4B checksum + 20B value
        assert config.region_bytes == 24000
        assert config.total_slots == 1000

    def test_total_slots_across_fleet(self):
        config = DartConfig(slots_per_collector=1000, num_collectors=4)
        assert config.total_slots == 4000

    def test_load_factor(self):
        config = DartConfig(slots_per_collector=1000)
        assert config.load_factor(500) == 0.5
        assert config.load_factor(0) == 0.0
        with pytest.raises(ValueError):
            config.load_factor(-1)

    def test_bytes_per_key(self):
        config = DartConfig(redundancy=2)
        assert config.bytes_per_key() == 48.0

    def test_components_agree_for_equal_configs(self):
        a, b = DartConfig(seed=5), DartConfig(seed=5)
        assert a.hash_family() == b.hash_family()
        assert a.key_checksum() == b.key_checksum()
        assert a == b

    def test_frozen(self):
        config = DartConfig()
        with pytest.raises(Exception):
            config.redundancy = 3


class TestMemoryBudget:
    def test_figure4_3gb_budget(self):
        """3 GB with 24-byte slots = 125M slots (Figure 4, 100M flows)."""
        config = DartConfig.for_memory_budget(3 * 10**9)
        assert config.slots_per_collector == 125_000_000
        assert config.load_factor(100_000_000) == pytest.approx(0.8)

    def test_budget_split_across_collectors(self):
        config = DartConfig.for_memory_budget(48000, num_collectors=2)
        assert config.slots_per_collector == 1000
        assert config.total_slots == 2000

    def test_budget_too_small_rejected(self):
        with pytest.raises(ValueError):
            DartConfig.for_memory_budget(10)

    def test_headline_300_bytes_per_flow(self):
        """Intro claim: 99.9% success with ~300 bytes per flow.

        300 B/flow with 24 B slots is load factor alpha = 24/300 = 0.08.
        The success probability at that load is validated in the theory
        and simulator tests; here we pin the arithmetic relationship.
        """
        flows = 10_000
        config = DartConfig.for_memory_budget(300 * flows)
        assert config.load_factor(flows) == pytest.approx(0.08)


def test_config_derives_its_layout_once_and_compares_by_fields():
    config = DartConfig(checksum_bits=12, value_bytes=9)
    assert config.layout is config.layout
    assert config.layout == SlotLayout(checksum_bits=12, value_bytes=9)
    assert config.slot_bytes == 11 == config.layout.slot_bytes
    fresh = DartConfig(checksum_bits=12, value_bytes=9)
    assert fresh == config and hash(fresh) == hash(config)
    assert {config: 1}[fresh] == 1
    assert DartConfig(checksum_bits=12, value_bytes=10) != config
