"""Tests for the global hash family (repro.hashing.hash_family)."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collector.counters import CounterStore
from repro.collector.store import DartStore
from repro.control.shards import shard_map_of
from repro.core.addressing import DartAddressing
from repro.core.config import DartConfig
from repro.hashing import hash_family
from repro.hashing.hash_family import (
    HashFamily,
    _fold_bytes,
    fold_key,
    fold_keys,
    hash_distribution_chi2,
    mix64,
    splitmix64,
    stable_key_bytes,
)
from repro.query.backend import FanoutBackend
from repro.query.service import QueryService

from .rigs import U64, ascii_text, flat_elements, tuple_keys, u64_edges


key_strategy = st.one_of(
    st.binary(min_size=0, max_size=32),
    st.text(max_size=32),
    st.integers(min_value=0, max_value=2**128),
    st.tuples(st.integers(min_value=0, max_value=2**32), st.text(max_size=8)),
)


class TestStableKeyBytes:
    def test_bytes_pass_through(self):
        assert stable_key_bytes(b"\x01\x02") == b"\x01\x02"

    def test_str_utf8(self):
        assert stable_key_bytes("flow") == b"flow"

    def test_int_big_endian_min_8_bytes(self):
        assert stable_key_bytes(5) == b"\x00" * 7 + b"\x05"
        assert len(stable_key_bytes(2**100)) == 13

    def test_tuple_length_prefixed(self):
        encoded = stable_key_bytes((b"ab", b"c"))
        assert encoded == b"\x00\x00\x00\x02ab\x00\x00\x00\x01c"

    def test_tuple_nesting_distinguishes_groupings(self):
        assert stable_key_bytes(((b"a", b"b"), b"c")) != stable_key_bytes(
            (b"a", (b"b", b"c"))
        )

    def test_negative_int_rejected(self):
        with pytest.raises(ValueError):
            stable_key_bytes(-1)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            stable_key_bytes(True)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            stable_key_bytes(3.14)

    @given(key=key_strategy)
    def test_deterministic(self, key):
        assert stable_key_bytes(key) == stable_key_bytes(key)


class TestMixers:
    def test_splitmix64_reference_values(self):
        # Reference sequence from the splitmix64 paper seed 0 stream.
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(1) == 0x910A2DEC89025CC1

    @given(value=st.integers(min_value=0, max_value=2**64 - 1))
    def test_mix64_stays_in_64_bits(self, value):
        assert 0 <= mix64(value, 0) < 2**64

    @given(value=st.integers(min_value=0, max_value=2**64 - 1))
    def test_mix64_seed_changes_output(self, value):
        assert mix64(value, seed=1) != mix64(value, seed=2)


class TestHashFamily:
    def test_same_seed_same_functions(self):
        """The global property: independent parties agree on every hash."""
        a, b = HashFamily(seed=7), HashFamily(seed=7)
        for index in range(8):
            assert a.hash_key(b"key", index) == b.hash_key(b"key", index)

    def test_different_seeds_differ(self):
        assert HashFamily(0).hash_key(b"key") != HashFamily(1).hash_key(b"key")

    def test_different_indexes_differ(self):
        family = HashFamily()
        hashes = {family.hash_key(b"key", index) for index in range(16)}
        assert len(hashes) == 16

    def test_equality_and_hash(self):
        assert HashFamily(3) == HashFamily(3)
        assert HashFamily(3) != HashFamily(4)
        assert hash(HashFamily(3)) == hash(HashFamily(3))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            HashFamily(seed=-1)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            HashFamily().hash_key(b"key", -1)

    def test_mod_bounds(self):
        family = HashFamily()
        for index in range(4):
            value = family.hash_key_mod(b"key", index, 97)
            assert 0 <= value < 97

    def test_mod_zero_rejected(self):
        with pytest.raises(ValueError):
            HashFamily().hash_key_mod(b"key", 0, 0)

    @given(key=key_strategy, index=st.integers(min_value=0, max_value=64))
    def test_deterministic(self, key, index):
        family = HashFamily(seed=42)
        assert family.hash_key(key, index) == family.hash_key(key, index)

    def test_distribution_uniform(self):
        """Chi-squared over 64 buckets should be near 63 for uniform hashes."""
        family = HashFamily(seed=123)
        samples = [family.hash_key(i) for i in range(20000)]
        chi2 = hash_distribution_chi2(samples, buckets=64)
        # 99.9th percentile of chi2(63) is ~106; far above means a broken hash.
        assert chi2 < 120

    def test_avalanche(self):
        """Flipping one key bit flips close to half the output bits."""
        family = HashFamily(seed=9)
        flipped_fractions = []
        for i in range(200):
            base = family.hash_key(i)
            neighbour = family.hash_key(i ^ 1)
            flipped_fractions.append(bin(base ^ neighbour).count("1") / 64)
        mean = sum(flipped_fractions) / len(flipped_fractions)
        assert 0.45 < mean < 0.55


class TestVectorisedHashing:
    """``hash_folded_array`` over folded integer keys, and the reduction to
    slots that ``DartAddressing.resolve_folded`` applies to it."""

    @staticmethod
    def _slots(count, slots, seed=0):
        config = DartConfig(slots_per_collector=slots, num_collectors=1, seed=seed)
        lanes = fold_keys(np.arange(count, dtype=np.uint64))
        return DartAddressing(config).resolve_folded(lanes)[2][0]

    def test_hash_array_matches_shape(self):
        lanes = fold_keys(np.arange(1000, dtype=np.uint64))
        hashes = HashFamily().hash_folded_array(lanes, index=2)
        assert hashes.shape == lanes.shape
        assert hashes.dtype == np.uint64

    def test_hash_array_deterministic_and_index_sensitive(self):
        family = HashFamily(seed=5)
        lanes = fold_keys(np.arange(100, dtype=np.uint64))
        first = family.hash_folded_array(lanes, 0)
        assert np.array_equal(first, family.hash_folded_array(lanes, 0))
        assert not np.array_equal(first, family.hash_folded_array(lanes, 1))

    def test_hash_array_mod_bounds(self):
        slots = self._slots(10000, 1009)
        assert int(slots.max()) < 1009
        assert int(slots.min()) >= 0

    def test_hash_array_mod_uniform(self):
        counts = np.bincount(self._slots(100000, 64, seed=11).astype(np.int64), minlength=64)
        expected = 100000 / 64
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 120

    def test_mod_zero_rejected(self):
        with pytest.raises(ValueError):
            DartConfig(slots_per_collector=0)


def test_chi2_empty_rejected():
    with pytest.raises(ValueError):
        hash_distribution_chi2([], buckets=8)


# ----------------------------------------------------------------------
# The flat-tuple encoding against the general rules it shortcuts.
# ----------------------------------------------------------------------

class TestFlatTupleEncoding:
    """``stable_key_bytes`` encodes a flat ``str`` / ``int`` tuple in one pass;
    every tuple must still come out as the general rules have it."""

    @settings(max_examples=200, deadline=None)
    @given(key=tuple_keys | st.tuples(ascii_text, ascii_text, u64_edges, u64_edges, u64_edges))
    def test_bytes_equal_the_general_rules(self, key):
        assert stable_key_bytes(key) == hash_family._key_bytes(key)

    @settings(max_examples=100, deadline=None)
    @given(
        head=st.lists(flat_elements, max_size=3),
        bad=st.sampled_from([True, False, -1, -(2**70), 3.5, None]),
        tail=st.lists(flat_elements, max_size=3),
        nested=st.booleans(),
    )
    def test_a_rejected_element_raises_what_the_general_rules_raise(
        self, head, bad, tail, nested
    ):
        key = (*head, (bad,) if nested else bad, *tail)
        with pytest.raises((TypeError, ValueError)) as general:
            hash_family._key_bytes(key)
        with pytest.raises(general.type):
            stable_key_bytes(key)


class TestFoldKeysMatchesFoldKey:
    def test_one_long_key_does_not_widen_the_matrix_for_all(self):
        keys = [i.to_bytes(8, "big") for i in range(4095)] + [bytes(1 << 20)]
        tracemalloc.start()
        try:
            lanes = fold_keys(keys)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        assert lanes[-1] == fold_key(keys[-1])
        assert lanes[:-1].tolist() == [fold_key(key) for key in keys[:-1]]

    def test_single_key_operations_never_enter_the_matrix(self, monkeypatch):
        """A point lookup, a ``put`` and an ``add`` fold one key the scalar way."""
        def forbidden(*_args):
            raise AssertionError("matrix fold on a single-key path")

        monkeypatch.setattr(hash_family, "_fold_rows", forbidden)
        config = DartConfig(slots_per_collector=1 << 10, num_collectors=4, redundancy=2)
        store = DartStore(config, packet_level=True)
        assert store.put("flow-7", b"v") == 2
        bank = CounterStore(cells_per_row=64, rows=3)
        bank.add("flow-7", 5)
        assert bank.add_many([("flow-7", 1)]) == 3
        shard_map = shard_map_of(store.cluster)
        service = QueryService(
            backend=FanoutBackend(config, store.cluster, store.fabric),
            shard_map_provider=lambda: shard_map,
        )
        point = 'select value from keys where key == "flow-7"'
        assert len(service.serve(point, "t", ["flow-7"], False).answer.rows) == 1
        with pytest.raises(AssertionError, match="matrix fold"):
            store.put_many([("flow-%d" % i, b"v") for i in range(64)])


# ----------------------------------------------------------------------
# Scalar hashing: same lanes, same hashes as the previous definitions
# ----------------------------------------------------------------------


def fold_bytes_word_loop(data: bytes) -> int:
    """``_fold_bytes`` as it was: one ``int.from_bytes`` and one call per word."""
    acc = 0xCBF29CE484222325
    for offset in range(0, len(data), 8):
        chunk = data[offset : offset + 8]
        word = int.from_bytes(chunk, "big")
        acc = splitmix64((acc ^ word) & U64)
    return splitmix64((acc ^ len(data)) & U64)


def test_fold_bytes_matches_the_word_loop():
    rng = random.Random(25)
    for length in range(131):
        for raw in (bytes(length), b"\xff" * length, *(rng.randbytes(length) for _ in range(8))):
            assert _fold_bytes(raw) == fold_bytes_word_loop(raw), raw
    assert _fold_bytes(bytearray(b"ragged tail")) == fold_bytes_word_loop(b"ragged tail")


@given(lane=st.integers(0, U64), index=st.sampled_from([0, 1, 7, 0x40000000, 0x7FFFFFFF]))
def test_hash_folded_is_mix64_under_the_member_seed(lane, index):
    family = HashFamily(seed=11)
    expected = mix64(lane, family._function_seed(index))
    assert family.hash_folded(lane, index) == expected
    assert family.hash_folded(lane, index) == expected  # the cached seed serves again
    assert family.hash_key(lane.to_bytes(8, "big"), index) == family.hash_folded(
        fold_key(lane.to_bytes(8, "big")), index
    )
