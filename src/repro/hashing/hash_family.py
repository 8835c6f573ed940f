"""Indexed family of independent global hash functions.

DART (paper section 3.1) requires a *stateless* mapping from telemetry keys
to memory addresses that every switch and every query client computes
identically: ``h_n(key)`` for ``n in [0, N)`` selects the N redundant slot
addresses, and a separate function selects the collector.

We realise the family with strong 64-bit integer mixers (splitmix64 /
xxhash-style avalanche) over a canonical byte encoding of the key, seeded per
function index.  Mixers of this form are well-distributed and pass avalanche
tests, which the property-based test-suite checks directly.

Vectorised variants (numpy ``uint64`` arrays in, arrays out) are bit-identical
to the scalar ones; the batch datapath and the statistical simulator, which
hashes tens of millions of keys, both run on them.
"""

from __future__ import annotations

import operator
import struct
from typing import Iterable, Sequence, Union

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


def mix64(value: int, seed: int) -> int:
    """Strong 64-bit avalanche mix of ``value`` under ``seed``: the definition
    :meth:`HashFamily.hash_folded` computes with ``splitmix64(seed)`` cached."""
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
    """Fold arbitrary-length bytes into a 64-bit lane with mixing per word: the
    per-key cost of every scalar hash, so the words come out of one ``struct``
    call (a short last word right-aligned) and :func:`splitmix64` is inline."""
    acc = 0xCBF29CE484222325  # FNV offset basis, an arbitrary non-zero start
    size = len(data)
    full, tail = divmod(size, 8)
    words = struct.unpack_from(f">{full}Q", data)
    if tail:
        words += (int.from_bytes(data[-tail:], "big"),)
    for word in words:
        acc = (acc ^ word) + 0x9E3779B97F4A7C15 & _U64
        acc = (acc ^ acc >> 30) * 0xBF58476D1CE4E5B9 & _U64
        acc = (acc ^ acc >> 27) * 0x94D049BB133111EB & _U64
        acc ^= acc >> 31
    # Mix in the length so prefixes don't collide with padded keys.
    return splitmix64(acc ^ size)


#: Runs shorter than this stay a loop of :func:`fold_key`.  Measured on
#: ``perf/``'s flow 5-tuples and flow strings: the matrix pass costs a fixed
#: 80-200 us, the scalar fold 3-8 us a key, crossover at 24-32 keys (at 32:
#: 255 -> 204 us, 98 -> 83 us); one key alone is 10-30x slower through numpy.
_MATRIX_MIN_KEYS = 32
#: The padded matrix (rows x longest row) may be at most this multiple of the
#: bytes encoded; a batch with a row long enough to break that folds key by key.
_PAD_SLACK = 4


def fold_keys(keys: Union[Iterable[Key], np.ndarray]) -> np.ndarray:
    """Fold many keys into a ``uint64`` lane array: :func:`fold_key` of each, in order.

    The single fold site of every batch path.  Row ``i`` is bit-identical to
    ``fold_key(keys[i])`` and a rejected key raises the same exception.  Bare
    ``int`` / ``str`` / ``bytes`` keys, or flat same-arity tuples, whose columns
    are each all ``int`` in ``[0, 2**64)``, all ASCII ``str`` or all ``bytes``
    (the key shapes of the paper's Table 1) are encoded a column at a time
    into one zero-padded byte matrix and the word mix runs down its columns.
    Every other batch loops over :func:`fold_key`: nested, mixed or non-ASCII
    keys, one whose matrix would exceed ``_PAD_SLACK`` times the bytes encoded
    (temporaries stay bounded however long the longest key), and runs below
    ``_MATRIX_MIN_KEYS`` (a point lookup, a ``put``, an ``add``): faster there.
    A ``uint64`` array holds integer keys (the simulator's identities): from
    ``_MATRIX_MIN_KEYS`` on, it goes to the matrix as an ``int`` column would,
    with no Python int in between.
    """
    if isinstance(keys, np.ndarray):
        if keys.dtype == np.uint64 and len(keys) >= _MATRIX_MIN_KEYS:
            return _fold_rows(*_int_rows(keys))
        keys = keys.tolist()
    keys = list(keys) if not isinstance(keys, (list, tuple)) else keys
    count = len(keys)
    encoded = _encode_columns(keys) if count >= _MATRIX_MIN_KEYS else None
    if encoded is None:
        return np.fromiter(map(fold_key, keys), dtype=np.uint64, count=count)
    return _fold_rows(*encoded)


def _encode_columns(keys: Sequence[Key]):
    """``(flat, lengths)``: the batch's encodings end to end and the size of each,
    built a column at a time; ``None`` leaves the batch to :func:`fold_key`.
    """
    tupled = type(keys[0]) is tuple  # a bare batch is kind-checked as one column
    if tupled and (set(map(type, keys)) != {tuple} or len(set(map(len, keys))) != 1):
        return None
    fields = [_encode_column(column) for column in (zip(*keys) if tupled else (keys,))]
    if None in fields or not fields:
        return None
    count, prefix = len(keys), 4 * tupled  # the ``>I`` length before an element
    lengths = sum(sizes + prefix for _flat, sizes in fields)
    slots = [int(sizes.max()) for _flat, sizes in fields]
    width = sum(slots) + prefix * len(fields)
    if width * count > _PAD_SLACK * int(lengths.sum()):
        return None
    if not tupled:
        return fields[0]
    # Each element sits behind its length in a slot as wide as its column's
    # longest; one masked read then squeezes the unused tails out, row-major.
    wide = np.empty((count, width), dtype=np.uint8)
    used = np.ones((count, width), dtype=bool)  # the prefixes stay
    cursor = 0
    for (flat, sizes), slot in zip(fields, slots):
        body = cursor + prefix
        wide[:, cursor:body] = sizes.astype(">u4").view(np.uint8).reshape(count, prefix)
        data = np.frombuffer(flat, dtype=np.uint8)
        if len(data) == count * slot:  # every element fills its slot
            wide[:, body : body + slot] = data.reshape(count, slot)
        else:  # the tails stay unset: the masked read skips them
            fills = used[:, body : body + slot] = _row_mask(sizes, slot)
            wide[:, body : body + slot][fills] = data
        cursor = body + slot
    return wide[used], lengths


def _encode_column(column: Sequence[Key]):
    """``(flat, lengths)`` of a column of one encodable kind, else ``None``.
    Kinds are checked on the exact type: numpy would coerce a ``bool``.
    """
    kinds, count = set(map(type, column)), len(column)
    if kinds == {int}:
        if min(column) < 0:  # numpy below 2 would wrap it into a valid key
            return None
        try:
            values = np.array(column, dtype=np.uint64)
        except OverflowError:  # wider than the 8-byte form
            return None
        return _int_rows(values)
    if kinds == {bytes}:
        flat = b"".join(column)
    elif kinds == {str} and (text := "".join(column)).isascii():
        flat = text.encode("ascii")
    else:
        return None
    return flat, np.fromiter(map(len, column), dtype=np.int64, count=count)


def _int_rows(values: np.ndarray):
    """``(flat, lengths)`` of ``uint64`` keys: each one's 8-byte big-endian form."""
    return values.astype(">u8").tobytes(), np.full(len(values), 8)


def pad_rows(flat: bytes, lengths: np.ndarray, width: int) -> np.ndarray:
    """Ragged rows laid end to end in ``flat`` as a ``uint8[len(lengths), width]``:
    row ``i`` is the next ``lengths[i]`` bytes, then zeros (none may be longer
    than ``width``; when all fill it the result is a read-only view of ``flat``).
    """
    data = np.frombuffer(flat, dtype=np.uint8)
    if len(data) == len(lengths) * width:
        return data.reshape(len(lengths), width)
    padded = np.zeros((len(lengths), width), dtype=np.uint8)
    padded[_row_mask(lengths, width)] = data  # fills row-major: ``flat``'s order
    return padded


def _row_mask(lengths: np.ndarray, width: int) -> np.ndarray:
    """``bool[len(lengths), width]``, true on the first ``lengths[i]`` of row ``i``."""
    # The comparison is the cost; one-byte lanes run it 4x faster than int64.
    columns = np.arange(width, dtype=np.min_scalar_type(width))
    return columns < lengths.astype(columns.dtype)[:, None]


def _fold_rows(flat: bytes, lengths: np.ndarray) -> np.ndarray:
    """:func:`_fold_bytes` of every row of ``flat`` (rows as for :func:`pad_rows`):
    one vectorised splitmix64 per 8-byte word column instead of a word loop
    per key; a row stops mixing past its own last word.
    """
    nwords = (lengths + 7) >> 3
    padded = pad_rows(flat, lengths, 8 * int(nwords.max()))
    # One contiguous row per word column, in native byte order.
    words = padded.view(">u8").T.astype(np.uint64, order="C")
    # ``int.from_bytes(chunk, "big")`` right-aligns a short last chunk: a row
    # not a multiple of 8 long has its last word shifted down the missing bytes.
    ragged = np.flatnonzero(lengths & 7)
    shifts = 8 * (8 - (lengths[ragged] & 7))
    words[nwords[ragged] - 1, ragged] >>= shifts.astype(np.uint64)
    acc = np.full(len(lengths), 0xCBF29CE484222325, dtype=np.uint64)
    shortest = int(nwords.min())
    for position, column in enumerate(words):
        mixed = _splitmix64_np(acc ^ column)
        acc = mixed if position < shortest else np.where(nwords > position, mixed, acc)
    return _splitmix64_np(acc ^ lengths.astype(np.uint64))


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
        self._mixed_seeds: dict = {}  # member index -> splitmix64 of its seed

    def __repr__(self) -> str:
        return f"HashFamily(seed={self.seed})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HashFamily) and other.seed == self.seed

    def __hash__(self) -> int:
        return hash(("HashFamily", self.seed))

    def _function_seed(self, index: int) -> int:
        if index < 0:
            raise ValueError("hash function index must be non-negative")
        return splitmix64((self._base ^ (index * 0xA24BAED4963EE407)) & _U64)

    def _mixed_seed(self, index: int) -> int:
        mixed = self._mixed_seeds.get(index)
        if mixed is None:
            mixed = self._mixed_seeds[index] = splitmix64(self._function_seed(index))
        return mixed

    def hash_key(self, key: Key, index: int = 0) -> int:
        """64-bit hash of ``key`` under family member ``index``."""
        return self.hash_folded(fold_key(key), index)

    def hash_folded(self, folded: int, index: int = 0) -> int:
        """Finish a :func:`fold_key` lane under family member ``index``:
        :func:`mix64` under the member's seed, whose own mix is cached.

        Equals ``hash_key(key, index)`` when ``folded == fold_key(key)``;
        the batch addressing path folds each key once and calls this per
        family member.
        """
        return splitmix64((folded ^ self._mixed_seed(index)) & _U64)

    def hash_folded_array(self, folded: np.ndarray, index=0) -> np.ndarray:
        """Vectorised :meth:`hash_folded` over a ``uint64`` lane array.

        Bit-identical to the scalar method element-wise: this is the mixer
        the columnar batch path and the simulator use so that columnar
        addressing matches scalar addressing exactly.  ``index`` may be a
        sequence of family members; the result then has one row per member,
        mixed in one pass.
        """
        folded = np.asarray(folded, dtype=np.uint64)
        try:
            member = operator.index(index)
        except TypeError:
            seed = np.array(
                [self._mixed_seed(member) for member in index], dtype=np.uint64
            )[:, None]
        else:
            seed = np.uint64(self._mixed_seed(member))
        return _splitmix64_np(folded ^ seed)

    def hash_key_mod(self, key: Key, index: int, modulus: int) -> int:
        """``hash_key`` reduced to ``[0, modulus)``."""
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        return self.hash_key(key, index) % modulus


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
