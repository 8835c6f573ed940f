"""Indexed family of independent global hash functions.

DART (paper section 3.1) requires a *stateless* mapping from telemetry keys
to memory addresses that every switch and every query client computes
identically: ``h_n(key)`` for ``n in [0, N)`` selects the N redundant slot
addresses, and a separate function selects the collector.

We realise the family with strong 64-bit integer mixers (splitmix64 /
xxhash-style avalanche) over a canonical byte encoding of the key, seeded per
function index.  Mixers of this form are well-distributed and pass avalanche
tests, which the property-based test-suite checks directly.

Vectorised variants (numpy ``uint64`` arrays in, arrays out) power the
statistical simulator, which needs to hash tens of millions of keys.
"""

from __future__ import annotations

import operator
import struct
from typing import Iterable, Union

import numpy as np

Key = Union[bytes, str, int, tuple]

_U64 = 0xFFFFFFFFFFFFFFFF


def stable_key_bytes(key: Key) -> bytes:
    """Canonical byte encoding of a telemetry key.

    Keys in DART deployments are things like flow 5-tuples, (switch ID,
    5-tuple) pairs, or query IDs (Table 1 of the paper).  All parties must
    encode a key the same way, so this function is the single source of
    truth: ints become 8-byte big-endian (wider ints use as many bytes as
    needed), strings become UTF-8, tuples are length-prefixed
    concatenations of their encoded elements.
    """
    if isinstance(key, bytes):
        return key
    if isinstance(key, str):
        return key.encode("utf-8")
    if isinstance(key, bool):
        raise TypeError("bool is not a valid telemetry key")
    if isinstance(key, int):
        if key < 0:
            raise ValueError(f"telemetry keys must be non-negative, got {key}")
        length = max(8, (key.bit_length() + 7) // 8)
        return key.to_bytes(length, "big")
    if isinstance(key, tuple):
        parts = []
        for element in key:
            encoded = stable_key_bytes(element)
            parts.append(struct.pack(">I", len(encoded)))
            parts.append(encoded)
        return b"".join(parts)
    raise TypeError(f"unsupported key type: {type(key).__name__}")


def splitmix64(value: int) -> int:
    """One round of the splitmix64 generator/mixer (scalar)."""
    value = (value + 0x9E3779B97F4A7C15) & _U64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _U64
    return value ^ (value >> 31)


def mix64(value: int, seed: int = 0) -> int:
    """Strong 64-bit avalanche mix of ``value`` under ``seed``."""
    return splitmix64((value ^ splitmix64(seed)) & _U64)


def fold_key(key: Key) -> int:
    """Fold a key into its seed-independent 64-bit lane.

    This is the expensive, per-key part of every family hash (byte
    encoding plus chunk mixing) and it does not depend on the function
    index, so batch paths compute it once per key and finish each family
    member with the cheap :meth:`HashFamily.hash_folded` mix.  By
    construction ``hash_folded(fold_key(k), i) == hash_key(k, i)``.
    """
    return _fold_bytes(stable_key_bytes(key))


def _fold_bytes(data: bytes) -> int:
    """Fold arbitrary-length bytes into a 64-bit lane with mixing per word."""
    acc = 0xCBF29CE484222325  # FNV offset basis, an arbitrary non-zero start
    for offset in range(0, len(data), 8):
        chunk = data[offset : offset + 8]
        word = int.from_bytes(chunk, "big")
        acc = splitmix64((acc ^ word) & _U64)
    # Mix in the length so prefixes don't collide with padded keys.
    return splitmix64((acc ^ len(data)) & _U64)


def fold_keys(keys: Iterable[Key]) -> np.ndarray:
    """Fold many keys into a ``uint64`` lane array (one :func:`fold_key` each).

    This is the single fold site of every batch path: a key-taking entry
    point calls it once, and the lanes -- not the keys -- are what crosses
    layer boundaries below it.  Every downstream family hash finishes
    vectorised via :meth:`HashFamily.hash_folded_array`.
    """
    keys = list(keys) if not isinstance(keys, (list, tuple)) else keys
    return np.fromiter(
        (fold_key(key) for key in keys), dtype=np.uint64, count=len(keys)
    )


def _splitmix64_np(values: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 over a ``uint64`` array."""
    with np.errstate(over="ignore"):
        values = values + np.uint64(0x9E3779B97F4A7C15)
        values = (values ^ (values >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        values = (values ^ (values >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return values ^ (values >> np.uint64(31))


class HashFamily:
    """A family of independent hash functions ``h_0, h_1, ...``.

    Every party constructing a ``HashFamily`` with the same ``seed`` obtains
    the same functions; this is what makes DART's addressing *global* and
    coordination-free.

    Parameters
    ----------
    seed:
        Network-wide configuration constant distributed to switches by the
        control plane and known to query clients.
    """

    def __init__(self, seed: int = 0) -> None:
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.seed = seed
        self._base = splitmix64(seed & _U64)
        self._seed_cache: dict = {}

    def __repr__(self) -> str:
        return f"HashFamily(seed={self.seed})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HashFamily) and other.seed == self.seed

    def __hash__(self) -> int:
        return hash(("HashFamily", self.seed))

    def _function_seed(self, index: int) -> int:
        seed = self._seed_cache.get(index)
        if seed is None:
            if index < 0:
                raise ValueError("hash function index must be non-negative")
            seed = splitmix64((self._base ^ (index * 0xA24BAED4963EE407)) & _U64)
            self._seed_cache[index] = seed
        return seed

    def hash_key(self, key: Key, index: int = 0) -> int:
        """64-bit hash of ``key`` under family member ``index``."""
        folded = _fold_bytes(stable_key_bytes(key))
        return mix64(folded, self._function_seed(index))

    def hash_folded(self, folded: int, index: int = 0) -> int:
        """Finish a :func:`fold_key` lane under family member ``index``.

        Equals ``hash_key(key, index)`` when ``folded == fold_key(key)``;
        the batch addressing path folds each key once and calls this per
        family member.
        """
        return mix64(folded, self._function_seed(index))

    def hash_folded_array(self, folded: np.ndarray, index=0) -> np.ndarray:
        """Vectorised :meth:`hash_folded` over a ``uint64`` lane array.

        Bit-identical to the scalar method element-wise (unlike
        :meth:`hash_array`, which hashes integer identities): this is the
        mixer the columnar batch path uses so that columnar addressing
        matches scalar addressing exactly.  ``index`` may be a sequence of
        family members; the result then has one row per member, mixed in
        one pass.
        """
        folded = np.asarray(folded, dtype=np.uint64)
        try:
            member = operator.index(index)
        except TypeError:
            seed = np.array(
                [splitmix64(self._function_seed(member)) for member in index],
                dtype=np.uint64,
            )[:, None]
        else:
            seed = np.uint64(splitmix64(self._function_seed(member)))
        return _splitmix64_np(folded ^ seed)

    def hash_key_mod(self, key: Key, index: int, modulus: int) -> int:
        """``hash_key`` reduced to ``[0, modulus)``."""
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        return self.hash_key(key, index) % modulus

    def hash_many(self, key: Key, count: int) -> list:
        """The first ``count`` family hashes of ``key``."""
        return [self.hash_key(key, index) for index in range(count)]

    # ------------------------------------------------------------------
    # Vectorised interface (statistical simulator path)
    # ------------------------------------------------------------------

    def hash_array(self, keys: np.ndarray, index: int = 0) -> np.ndarray:
        """Vectorised 64-bit hash of integer keys under member ``index``.

        ``keys`` is interpreted as identities (e.g. flow numbers); the result
        matches what a scalar path hashing the same integer identity would
        produce only in distribution, not bit-for-bit -- the simulator cares
        about uniformity and independence, not wire-format equality.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        seed = np.uint64(self._function_seed(index))
        return _splitmix64_np(keys ^ seed)

    def hash_array_mod(
        self, keys: np.ndarray, index: int, modulus: int
    ) -> np.ndarray:
        """Vectorised ``hash_array`` reduced to ``[0, modulus)``."""
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        return self.hash_array(keys, index) % np.uint64(modulus)


def hash_distribution_chi2(samples: Iterable[int], buckets: int) -> float:
    """Chi-squared statistic of hash samples bucketed uniformly.

    A helper for tests and for operators validating that a configured hash
    family spreads their real key population evenly.  The expected value for
    a uniform hash is approximately ``buckets - 1``.
    """
    counts = np.zeros(buckets, dtype=np.int64)
    total = 0
    for sample in samples:
        counts[sample % buckets] += 1
        total += 1
    if total == 0:
        raise ValueError("no samples supplied")
    expected = total / buckets
    return float(((counts - expected) ** 2 / expected).sum())
