"""Tests for the global hash family (repro.hashing.hash_family)."""

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
    fold_key,
    fold_keys,
    hash_distribution_chi2,
    mix64,
    splitmix64,
    stable_key_bytes,
)
from repro.query.backend import FanoutBackend
from repro.query.service import QueryService

from .test_core_addressing import mixed_keys

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
# Differential: the batch fold (column-wise encoding + matrix word mix)
# against the scalar definition it must equal row for row.
# ----------------------------------------------------------------------

_u64 = st.integers(0, 2**64 - 1) | st.sampled_from([0, 2**64 - 1])
_ascii = st.text(st.characters(max_codepoint=127), max_size=20)
_bytes = st.binary(max_size=40) | st.sampled_from(
    [b"", b"7 bytes", b"8  bytes", b"9   bytes", b"sixteen bytes .."]
)
_KINDS = (
    _u64,
    _ascii,
    st.text(max_size=12),
    _bytes,
    st.tuples(_ascii, _ascii, _u64, _u64, _u64),
    st.tuples(st.text(max_size=6), _bytes, _u64),
    st.tuples(_u64, _u64, _u64),
)


def _batches(element):
    """Runs on both sides of the scalar/matrix threshold (32 keys)."""
    return st.lists(element, max_size=40) | st.lists(element, min_size=32, max_size=200)


def assert_folds_like_scalar(keys):
    lanes = fold_keys(keys)
    assert lanes.dtype == np.uint64
    scalar = keys.tolist() if isinstance(keys, np.ndarray) else keys
    assert lanes.tolist() == [fold_key(key) for key in scalar]


# ----------------------------------------------------------------------
# The flat-tuple encoding against the general rules it shortcuts.
# ----------------------------------------------------------------------

_flat = st.one_of(
    _ascii,
    st.text(max_size=12),
    st.binary(max_size=12),
    _u64,
    st.sampled_from([0, 2**64 - 1, 2**64, 2**80]),
)
_element = _flat | st.tuples(_flat, _flat) | st.tuples(_flat, st.tuples(_flat))
_tuple_keys = st.lists(_element, max_size=6).map(tuple)


class TestFlatTupleEncoding:
    """``stable_key_bytes`` encodes a flat ``str`` / ``int`` tuple in one pass;
    every tuple must still come out as the general rules have it."""

    @settings(max_examples=200, deadline=None)
    @given(key=_tuple_keys | st.tuples(_ascii, _ascii, _u64, _u64, _u64))
    def test_bytes_equal_the_general_rules(self, key):
        assert stable_key_bytes(key) == hash_family._key_bytes(key)

    @settings(max_examples=100, deadline=None)
    @given(
        head=st.lists(_flat, max_size=3),
        bad=st.sampled_from([True, False, -1, -(2**70), 3.5, None]),
        tail=st.lists(_flat, max_size=3),
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

    @settings(max_examples=40, deadline=None)
    @given(
        keys=st.lists(_tuple_keys, max_size=40)
        | st.lists(st.tuples(_ascii, _ascii, _u64, _u64, _u64), min_size=32, max_size=80)
    )
    def test_fold_key_equals_fold_keys_on_the_batch(self, keys):
        assert fold_keys(keys).tolist() == [fold_key(key) for key in keys]


class TestFoldKeysMatchesFoldKey:
    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.one_of(*map(_batches, _KINDS))
        | _batches(_u64).map(lambda keys: np.array(keys, dtype=np.uint64))
    )
    def test_homogeneous_batches(self, keys):
        assert_folds_like_scalar(keys)

    @settings(max_examples=40, deadline=None)
    @given(keys=_batches(mixed_keys) | _batches(st.one_of(mixed_keys, *_KINDS)))
    def test_mixed_shapes_types_and_arities_in_one_batch(self, keys):
        assert_folds_like_scalar(keys)

    @pytest.mark.parametrize(
        "wrap", [bytes, lambda row: (7, row), lambda row: row.decode()],
        ids=["bytes", "tuple", "str"],
    )
    def test_every_row_length_1_to_17(self, wrap):
        """The scalar fold right-aligns a short last word; so must each row."""
        rows = [bytes(range(65, 65 + length)) for length in range(1, 18)]
        assert_folds_like_scalar([wrap(row) for row in rows] * 3)

    @pytest.mark.parametrize(
        "bad", [True, -1, 3.14, (1, True), (1, -1), "lone \ud800 surrogate"], ids=repr
    )
    @pytest.mark.parametrize(
        "fill", [lambda i: i, lambda i: "flow-%d" % i, lambda i: (i, i)], ids=["int", "str", "tuple"]
    )
    def test_rejected_key_raises_what_the_scalar_fold_raises(self, bad, fill):
        with pytest.raises((TypeError, ValueError)) as scalar:
            fold_key(bad)
        keys = [fill(i) for i in range(64)]
        keys[40] = bad
        with pytest.raises(scalar.type) as batch:
            fold_keys(keys)
        assert str(batch.value) == str(scalar.value)

    def test_any_iterable_of_keys(self):
        keys = ["flow-%d" % i for i in range(80)]
        expected = [fold_key(key) for key in keys]
        table = dict.fromkeys(keys)
        for shape in (iter(keys), tuple(keys), table.keys(), table, (k for k in keys)):
            assert fold_keys(shape).tolist() == expected
        assert fold_keys(range(80)).tolist() == [fold_key(i) for i in range(80)]
        assert fold_keys(()).shape == (0,)

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
