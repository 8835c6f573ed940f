"""Tests for stateless global addressing (repro.core.addressing)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.addressing as addressing_module
from repro.core.addressing import COLLECTOR_FUNCTION_INDEX, DartAddressing
from repro.core.config import DartConfig
from repro.hashing.hash_family import fold_key, fold_keys
from repro.primitives.translator import COUNTER_FUNCTION_BASE, CountMinAddressing

from .rigs import mixed_keys

key_strategy = st.one_of(
    st.binary(min_size=1, max_size=16),
    st.integers(min_value=0, max_value=2**64),
    st.tuples(st.integers(min_value=0, max_value=2**32), st.integers(0, 65535)),
)


def make_addressing(**kwargs):
    defaults = dict(slots_per_collector=1 << 12, num_collectors=4, redundancy=3)
    defaults.update(kwargs)
    return DartAddressing(DartConfig(**defaults))


class TestGlobalAgreement:
    """The coordination-free property: all parties compute the same map."""

    @given(key=key_strategy)
    def test_independent_instances_agree(self, key):
        a = make_addressing()
        b = make_addressing()
        assert a.collector_of(key) == b.collector_of(key)
        assert a.checksum_of(key) == b.checksum_of(key)
        for n in range(3):
            assert a.slot_index(key, n) == b.slot_index(key, n)

    def test_different_seed_changes_mapping(self):
        a = make_addressing(seed=1)
        b = make_addressing(seed=2)
        moved = sum(
            a.slot_index(i, 0) != b.slot_index(i, 0) for i in range(100)
        )
        assert moved > 90


class TestBounds:
    @given(key=key_strategy)
    def test_collector_in_range(self, key):
        addressing = make_addressing()
        assert 0 <= addressing.collector_of(key) < 4

    @given(key=key_strategy)
    def test_slots_in_range(self, key):
        addressing = make_addressing()
        for n in range(3):
            assert 0 <= addressing.slot_index(key, n) < (1 << 12)

    def test_copy_index_out_of_range_rejected(self):
        addressing = make_addressing(redundancy=2)
        with pytest.raises(ValueError):
            addressing.slot_index(b"key", 2)
        with pytest.raises(ValueError):
            addressing.slot_index(b"key", -1)


class TestLocate:
    def test_all_copies_on_same_collector(self):
        """Paper section 3.1: duplicates of any key stay on one collector."""
        addressing = make_addressing()
        for i in range(200):
            resolved = addressing.resolve(("flow", i))
            assert resolved.collector_id == addressing.collector_of(("flow", i))

    def test_locate_structure(self):
        addressing = make_addressing(redundancy=3)
        resolved = addressing.resolve(b"key")
        assert resolved.checksum == addressing.checksum_of(b"key")
        assert list(resolved.slot_indexes) == [
            addressing.slot_index(b"key", n) for n in range(3)
        ]

    def test_copies_usually_distinct_slots(self):
        """Independent hashes rarely collide in a 4096-slot region."""
        addressing = make_addressing(redundancy=2)
        collisions = sum(
            addressing.slot_index(i, 0) == addressing.slot_index(i, 1)
            for i in range(1000)
        )
        assert collisions < 10  # expected ~1000/4096 < 1


class TestSlotAddress:
    def test_address_arithmetic(self):
        addressing = make_addressing()
        slot_bytes = addressing.config.slot_bytes
        assert addressing.slot_address(0x1000, 0) == 0x1000
        assert addressing.slot_address(0x1000, 5) == 0x1000 + 5 * slot_bytes

    def test_out_of_region_rejected(self):
        addressing = make_addressing(slots_per_collector=16)
        with pytest.raises(ValueError):
            addressing.slot_address(0x1000, 16)


class TestDistribution:
    def test_collector_selection_balanced(self):
        addressing = make_addressing(num_collectors=8)
        counts = np.bincount(
            [addressing.collector_of(i) for i in range(8000)], minlength=8
        )
        expected = 1000
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 30  # chi2(7) 99.9th percentile ~24; allow slack

    def test_slot_distribution_uniform(self):
        addressing = make_addressing(slots_per_collector=64, num_collectors=1)
        counts = np.bincount(
            [addressing.slot_index(i, 0) for i in range(64000)], minlength=64
        )
        expected = 1000
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 120


class TestVectorised:
    def test_matches_scalar_distribution_bounds(self):
        addressing = make_addressing()
        lanes = fold_keys(range(10000))
        collectors, checksums, slots = addressing.resolve_folded(lanes)
        assert slots.shape == (3, 10000)
        assert int(collectors.max()) < 4
        assert int(slots.max()) < (1 << 12)
        assert int(checksums.max()) < (1 << 32)

    def test_equality(self):
        assert make_addressing() == make_addressing()
        assert make_addressing(seed=1) != make_addressing(seed=2)


# ----------------------------------------------------------------------
# Differential: everything derived from a lane equals the reference that
# hashes the key itself (HashFamily.hash_key_mod / KeyChecksum.compute).
# ----------------------------------------------------------------------

class TestLanePathMatchesKeyReference:
    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.lists(mixed_keys, min_size=1, max_size=12),
        redundancy=st.sampled_from([1, 2, 3, 4, 8]),
        checksum_bits=st.sampled_from([8, 16, 32]),
        rows=st.sampled_from([1, 2, 4]),
        seed=st.integers(0, 3),
    )
    def test_every_location_bit_identical(
        self, keys, redundancy, checksum_bits, rows, seed
    ):
        config = DartConfig(
            slots_per_collector=1 << 10, num_collectors=5, seed=seed,
            redundancy=redundancy, checksum_bits=checksum_bits,
        )
        addressing = DartAddressing(config)
        family, checksum = config.hash_family(), config.key_checksum()
        count_min = CountMinAddressing(family, rows, 97)

        collectors = [
            family.hash_key_mod(key, COLLECTOR_FUNCTION_INDEX, 5) for key in keys
        ]
        checksums = [checksum.compute(key) for key in keys]
        slots = [
            [family.hash_key_mod(key, n, 1 << 10) for n in range(redundancy)]
            for key in keys
        ]
        cells = [
            [
                row * 97 + family.hash_key_mod(key, COUNTER_FUNCTION_BASE + row, 97)
                for row in range(rows)
            ]
            for key in keys
        ]

        # Scalar forms, from the key and from its lane.
        for index, key in enumerate(keys):
            resolved = addressing.resolve(key)
            assert resolved == addressing.resolve_lane(fold_key(key))
            assert resolved.collector_id == collectors[index]
            assert resolved.checksum == checksums[index]
            assert list(resolved.slot_indexes) == slots[index]
            assert count_min.key_cells(key) == cells[index]

        # Run forms, resolved as arrays and lane by lane (the length cut forced).
        lanes = fold_keys(keys)
        assert count_min.cells_array(lanes).tolist() == cells
        for cut in (1, 1 << 30):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(addressing_module, "_ARRAY_MIN_LANES", cut)
                got_collectors, got_checksums, got_slots = addressing.resolve_folded(lanes)
                assert got_collectors.tolist() == collectors
                assert got_checksums.tolist() == checksums
                assert got_slots.shape == (redundancy, len(keys))
                assert got_slots.T.tolist() == slots
                assert addressing.collectors_folded(lanes) == collectors

    def test_array_mix_accepts_any_integral_member(self):
        """``hash_folded_array`` took ``np.int64(3)`` for a sequence."""
        family = DartConfig().hash_family()
        lanes = fold_keys([b"a", b"b"])
        assert (
            family.hash_folded_array(lanes, np.int64(3)).tolist()
            == family.hash_folded_array(lanes, 3).tolist()
            == [family.hash_folded(lane, 3) for lane in lanes.tolist()]
        )
