"""Differential tests for the batch datapath's per-row kernels.

Each kernel runs a whole matrix in one C-level pass and must equal, row for
row, the scalar reference it replaced:

- ``frames.icrc_rows`` (a seeded ``zlib.crc32`` map over an OR-masked
  image) against ``packets._icrc_of_wire`` on each frame's bytes;
- ``CrcAlgorithm.compute_rows(rows, initial)`` against ``compute(row,
  initial)`` for every catalogue algorithm, chaining included;
- ``MemoryRegion.write_offset_columnar`` / ``read_offset_columnar``
  (indexing one strided window over the region) against looped
  ``write_offset`` / ``read_offset``: bytes, counters and error text;
- tuple ``fold_keys`` (column-split, matrix-folded) against ``fold_key``,
  fallbacks and exceptions included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.crc import CRC8, CRC16_CCITT, CRC32, CRC32C
from repro.hashing.hash_family import fold_key, fold_keys
from repro.mem.region import MemoryRegion, RegionAccessError
from repro.rdma.frames import ICRC_BYTES, IP_OFF, FrameBatch, FramePool, icrc_rows
from repro.rdma.layout import BTH, ICRC_MASKED_COLUMNS, ICRC_PREFIX_BYTES
from repro.rdma.packets import _icrc_of_wire

ALGORITHMS = [CRC8, CRC16_CCITT, CRC32, CRC32C]
_seeds = st.integers(0, 2**32 - 1)


def _matrix(seed, count, width):
    return np.random.default_rng(seed).integers(0, 256, (count, width), dtype=np.uint8)


# ---------------------------------------------------------------------------
# The iCRC
# ---------------------------------------------------------------------------

#: The narrowest frame whose masked columns all exist: Ethernet..BTH + iCRC.
MIN_FRAME = BTH.end + ICRC_BYTES


def _scalar_icrcs(frames):
    width = frames.shape[1]
    return [_icrc_of_wire(row[IP_OFF : width - ICRC_BYTES].tobytes()) for row in frames]


def _shaped(frames, shape, seed):
    """The same rows as a contiguous, column-view, selected or read-only matrix."""
    if shape == "column view":
        wide = _matrix(seed, len(frames), frames.shape[1] + 5)
        wide[:, 3 : 3 + frames.shape[1]] = frames
        return wide[:, 3 : 3 + frames.shape[1]]
    if shape == "selected":
        pool = FramePool()
        lease, view = pool.acquire(len(frames), frames.shape[1])
        view[:] = frames
        batch = FrameBatch(view, np.zeros(len(frames), dtype=np.int64), lease)
        return batch.select(np.random.default_rng(seed).permutation(len(frames))).frames
    if shape == "read-only":
        frames = frames.copy()
        frames.flags.writeable = False
    return frames


class TestIcrcRows:
    @settings(max_examples=80, deadline=None)
    @given(
        width=st.integers(MIN_FRAME, 4096) | st.sampled_from([MIN_FRAME, 4096]),
        count=st.sampled_from([0, 1]) | st.integers(2, 24),
        shape=st.sampled_from(["contiguous", "column view", "selected", "read-only"]),
        seed=_seeds,
    )
    def test_equals_the_scalar_icrc_of_every_row(self, width, count, shape, seed):
        frames = _shaped(_matrix(seed, count, width), shape, seed)
        icrcs = icrc_rows(frames)
        assert icrcs.dtype == np.uint32 and icrcs.shape == (count,)
        assert icrcs.tolist() == _scalar_icrcs(frames)

    def test_every_masked_byte_is_ignored_and_every_other_counts(self):
        frames = _matrix(3, 1, MIN_FRAME + 24)
        reference = icrc_rows(frames)[0]
        masked = {IP_OFF + column - ICRC_PREFIX_BYTES for column in ICRC_MASKED_COLUMNS}
        for column in range(IP_OFF, frames.shape[1] - ICRC_BYTES):
            flipped = frames.copy()
            flipped[0, column] ^= 0x01
            assert (icrc_rows(flipped)[0] == reference) == (column in masked), column


# ---------------------------------------------------------------------------
# compute_rows, seeded
# ---------------------------------------------------------------------------


class TestComputeRows:
    @settings(max_examples=60, deadline=None)
    @given(
        algorithm=st.sampled_from(ALGORITHMS),
        count=st.sampled_from([0, 1]) | st.integers(2, 12),
        width=st.integers(0, 96),
        prefix=st.none() | st.binary(max_size=24),
        seed=_seeds,
    )
    def test_equals_compute_per_row_with_the_same_initial(
        self, algorithm, count, width, prefix, seed
    ):
        rows = _matrix(seed, count, width)
        initial = None if prefix is None else algorithm.compute(prefix)
        crcs = algorithm.compute_rows(rows, initial)
        assert crcs.dtype == np.uint32
        assert crcs.tolist() == [algorithm.compute(row.tobytes(), initial) for row in rows]
        if prefix is not None:  # chaining: the prefix CRC'd once stands for its bytes
            assert crcs.tolist() == [algorithm.compute(prefix + row.tobytes()) for row in rows]

    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.name)
    def test_zero_width_rows_are_the_empty_crc(self, algorithm):
        """Every algorithm returns ``compute(b"")`` per row of a zero-width
        matrix (CRC-32 used to raise ``range() arg 3 must not be zero``)."""
        rows = np.zeros((3, 0), dtype=np.uint8)
        assert algorithm.compute_rows(rows).tolist() == [algorithm.compute(b"")] * 3
        seed = algorithm.compute(b"chained")
        assert algorithm.compute_rows(rows, seed).tolist() == [seed] * 3


# ---------------------------------------------------------------------------
# Region scatter and gather
# ---------------------------------------------------------------------------


def _counters(region):
    return (
        region.snapshot(),
        region.write_count,
        region.c_bytes_written.value,
        region.c_slot_overwrites.value,
    )


@st.composite
def _slot_writes(draw):
    """Slot-aligned writes (the contract: ranges disjoint or identical),
    repeats and the region's last slot included, over a part-live image."""
    width = draw(st.integers(1, 24))
    slots = draw(st.integers(1, 12))
    size = slots * width + draw(st.sampled_from([0, 0, 1, width - 1]))
    count = draw(st.sampled_from([0, 1]) | st.integers(2, 40))
    last = st.just(slots - 1)
    indexes = draw(st.lists(st.integers(0, slots - 1) | last, min_size=count, max_size=count))
    seed = draw(_seeds)
    payloads = _matrix(seed, count, width)
    payloads[::3] = 0  # dead payloads, so repeats test the overwrite rule
    image = _matrix(seed + 1, 1, size)[0]
    image[: size // 2] = 0
    return size, np.array(indexes, dtype=np.int64) * width, payloads, image.tobytes()


class TestRegionColumnar:
    @settings(max_examples=80, deadline=None)
    @given(case=_slot_writes())
    def test_scatter_equals_looped_write_offset(self, case):
        size, offsets, payloads, image = case
        looped, columnar = MemoryRegion(size), MemoryRegion(size)
        looped._buffer[:] = image
        columnar._buffer[:] = image
        for offset, payload in zip(offsets.tolist(), payloads):
            looped.write_offset(offset, payload.tobytes())
        assert columnar.write_offset_columnar(offsets, payloads) == len(offsets)
        assert _counters(columnar) == _counters(looped)

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(1, 64),
        data=st.data(),
        seed=_seeds,
    )
    def test_gather_equals_looped_read_offset(self, size, data, seed):
        width = data.draw(st.integers(0, size) | st.just(size))
        offsets = data.draw(st.lists(st.integers(0, size - width), max_size=30))
        region = MemoryRegion(size)
        region._buffer[:] = _matrix(seed, 1, size)[0].tobytes()
        rows = region.read_offset_columnar(np.array(offsets, dtype=np.int64), width)
        assert rows.shape == (len(offsets), width)
        assert [row.tobytes() for row in rows] == [region.read_offset(o, width) for o in offsets]

    @pytest.mark.parametrize("bad", [-1, 57, 64, 1 << 40])
    def test_out_of_bounds_raises_the_scalar_text_and_lands_nothing(self, bad):
        width = 8
        offsets = np.array([0, 8, bad, 16], dtype=np.int64)
        payloads = np.full((4, width), 0x5A, dtype=np.uint8)
        region = MemoryRegion(64)
        with pytest.raises(RegionAccessError) as scalar_write:
            region.write_offset(bad, payloads[0].tobytes())
        with pytest.raises(RegionAccessError) as scalar_read:
            region.read_offset(bad, width)
        with pytest.raises(RegionAccessError) as columnar_write:
            region.write_offset_columnar(offsets, payloads)
        with pytest.raises(RegionAccessError) as columnar_read:
            region.read_offset_columnar(offsets, width)
        assert str(columnar_write.value) == str(scalar_write.value)
        assert str(columnar_read.value) == str(scalar_read.value)
        assert _counters(region) == (bytes(64), 0, 0, 0)

    def test_zero_rows_and_a_width_past_the_region(self):
        region = MemoryRegion(16)
        empty = np.empty(0, dtype=np.int64)
        for width in (0, 8, 16, 17, 1000):
            assert region.read_offset_columnar(empty, width).shape == (0, width)
            assert region.write_offset_columnar(empty, np.empty((0, width), np.uint8)) == 0
        with pytest.raises(RegionAccessError, match=r"local read \[0, \+17\)"):
            region.read_offset_columnar(np.zeros(1, dtype=np.int64), 17)
        with pytest.raises(RegionAccessError, match=r"local write \[0, \+17\)"):
            region.write_offset_columnar(np.zeros(1, dtype=np.int64), np.zeros((1, 17), np.uint8))
        assert _counters(region) == (bytes(16), 0, 0, 0)


# ---------------------------------------------------------------------------
# Tuple keys
# ---------------------------------------------------------------------------

_element = (
    st.integers(0, 2**64 - 1)
    | st.text(st.characters(max_codepoint=127), max_size=15)
    | st.binary(max_size=15)
)
#: Elements that send a batch to the scalar loop, or make it raise.
_odd = st.sampled_from([True, -1, 2**64, 2**70, "non-ascii é", (1, "nested"), 1.5, None])


@st.composite
def _tuple_batches(draw):
    """At least 32 same-arity tuples (the matrix path), each column one kind,
    some fixed-length (one slot filled by every row) and some ragged; sometimes
    one odd element, or one key of another arity, planted anywhere."""
    arity = draw(st.integers(1, 6))
    kinds = draw(st.lists(st.sampled_from(["int", "str", "bytes", "fixed"]), min_size=arity, max_size=arity))
    count = draw(st.integers(32, 120))
    seed = draw(_seeds)
    rng = np.random.default_rng(seed)

    def element(kind):
        if kind == "int":
            return int(rng.integers(0, 2**63)) << int(rng.integers(0, 2))
        if kind == "fixed":
            return "abcdef"[: 3] + "%03d" % rng.integers(0, 1000)
        text = "x" * int(rng.integers(0, 16))
        return text if kind == "str" else text.encode()

    keys = [tuple(element(kind) for kind in kinds) for _ in range(count)]
    position = draw(st.integers(0, count - 1))
    planted = draw(st.sampled_from(["none", "odd", "arity"]))
    if planted == "odd":
        column = draw(st.integers(0, arity - 1))
        row = list(keys[position])
        row[column] = draw(_odd)
        keys[position] = tuple(row)
    elif planted == "arity":
        keys[position] = keys[position] + (draw(_element),)
    return keys


class TestTupleFold:
    @settings(max_examples=120, deadline=None)
    @given(keys=_tuple_batches())
    def test_tuple_batches_fold_like_fold_key(self, keys):
        try:
            expected = [fold_key(key) for key in keys]
        except (TypeError, ValueError) as error:
            with pytest.raises(type(error)) as batch:
                fold_keys(keys)
            assert str(batch.value) == str(error)
        else:
            assert fold_keys(keys).tolist() == expected
