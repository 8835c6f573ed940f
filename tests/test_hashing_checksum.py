"""Tests for b-bit key checksums (repro.hashing.checksum)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hashing.checksum import KeyChecksum
from repro.hashing.hash_family import HashFamily, fold_keys


class TestKeyChecksum:
    @pytest.mark.parametrize("bits", [1, 8, 16, 32, 64])
    def test_fits_width(self, bits):
        checksum = KeyChecksum(bits=bits)
        for key in (b"a", b"b", 12345, ("flow", 80)):
            assert 0 <= checksum.compute(key) < (1 << bits)

    @pytest.mark.parametrize("bits", [0, 65, -3])
    def test_invalid_width_rejected(self, bits):
        with pytest.raises(ValueError):
            KeyChecksum(bits=bits)

    def test_nbytes(self):
        assert KeyChecksum(bits=32).nbytes == 4
        assert KeyChecksum(bits=16).nbytes == 2
        assert KeyChecksum(bits=12).nbytes == 2
        assert KeyChecksum(bits=8).nbytes == 1

    def test_global_agreement(self):
        """Switches and queriers with the same config agree on checksums."""
        a = KeyChecksum(bits=32, family=HashFamily(seed=9))
        b = KeyChecksum(bits=32, family=HashFamily(seed=9))
        assert a.compute(b"flow-5-tuple") == b.compute(b"flow-5-tuple")
        assert a == b

    def test_different_family_seeds_differ(self):
        a = KeyChecksum(bits=32, family=HashFamily(seed=1))
        b = KeyChecksum(bits=32, family=HashFamily(seed=2))
        assert a.compute(b"key") != b.compute(b"key")
        assert a != b

    def test_matches(self):
        checksum = KeyChecksum(bits=16)
        stored = checksum.compute(b"key")
        assert checksum.matches(b"key", stored)
        assert not checksum.matches(b"other", stored)

    def test_collision_probability(self):
        assert KeyChecksum(bits=32).collision_probability() == 2.0**-32
        assert KeyChecksum(bits=1).collision_probability() == 0.5

    @given(bits=st.integers(min_value=1, max_value=64), key=st.binary(max_size=16))
    def test_deterministic(self, bits, key):
        checksum = KeyChecksum(bits=bits)
        assert checksum.compute(key) == checksum.compute(key)

    def test_uniformity_8bit(self):
        """Paper section 4 assumes uniform checksums; verify empirically."""
        checksum = KeyChecksum(bits=8)
        counts = np.bincount(
            [checksum.compute(i) for i in range(51200)], minlength=256
        )
        expected = 51200 / 256
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 99.9th percentile of chi2(255) is ~330.
        assert chi2 < 360

    def test_vectorised_matches_distributional_width(self):
        checksum = KeyChecksum(bits=16)
        values = checksum.compute_folded_array(fold_keys(np.arange(4096, dtype=np.uint64)))
        assert values.dtype == np.uint64
        assert int(values.max()) < (1 << 16)
        assert values[:64].tolist() == [checksum.compute(key) for key in range(64)]

    def test_independent_of_slot_addressing(self):
        """Checksum must not correlate with slot index hashes (index 0..N)."""
        family = HashFamily(seed=4)
        checksum = KeyChecksum(bits=32, family=family)
        collisions = 0
        for i in range(2000):
            key = ("flow", i)
            if checksum.compute(key) == family.hash_key(key, 0) & 0xFFFFFFFF:
                collisions += 1
        assert collisions <= 2  # would be ~2000 if they were the same function
