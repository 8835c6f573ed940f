"""Tests for the collector memory substrate (repro.mem)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mem.region import MemoryRegion, RegionAccessError
from repro.mem.slots import SlotCodec, SlotLayout


class TestMemoryRegion:
    def test_initially_zeroed(self):
        region = MemoryRegion(size=64, base_address=0x1000)
        assert region.dma_read(0x1000, 64) == b"\x00" * 64

    def test_write_then_read(self):
        region = MemoryRegion(size=64, base_address=0x1000, rkey=0xAB)
        region.dma_write(0x1010, b"hello", rkey=0xAB)
        assert region.dma_read(0x1010, 5, rkey=0xAB) == b"hello"
        assert region.write_count == 1

    def test_wrong_rkey_rejected(self):
        region = MemoryRegion(size=64, base_address=0x1000, rkey=0xAB)
        with pytest.raises(RegionAccessError):
            region.dma_write(0x1000, b"x", rkey=0xCD)

    def test_none_rkey_skips_check(self):
        region = MemoryRegion(size=64, base_address=0x1000, rkey=0xAB)
        region.dma_write(0x1000, b"x")  # local/trusted path

    @pytest.mark.parametrize(
        "address,length",
        [(0x0FFF, 1), (0x1000, 65), (0x1040, 1), (0x103F, 2)],
    )
    def test_out_of_bounds_rejected(self, address, length):
        region = MemoryRegion(size=64, base_address=0x1000)
        with pytest.raises(RegionAccessError):
            region.dma_read(address, length)

    def test_boundary_access_allowed(self):
        region = MemoryRegion(size=64, base_address=0x1000)
        region.dma_write(0x103F, b"z")
        assert region.dma_read(0x103F, 1) == b"z"

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            MemoryRegion(size=0)

    def test_fetch_add_returns_original_and_wraps(self):
        region = MemoryRegion(size=64, base_address=0x1000)
        assert region.dma_fetch_add(0x1000, 5) == 0
        assert region.dma_fetch_add(0x1000, 3) == 5
        assert int.from_bytes(region.dma_read(0x1000, 8), "big") == 8
        # Wrap-around modulo 2**64.
        region.dma_write(0x1008, (2**64 - 1).to_bytes(8, "big"))
        assert region.dma_fetch_add(0x1008, 2) == 2**64 - 1
        assert int.from_bytes(region.dma_read(0x1008, 8), "big") == 1

    def test_fetch_add_requires_alignment(self):
        region = MemoryRegion(size=64, base_address=0x1000)
        with pytest.raises(RegionAccessError):
            region.dma_fetch_add(0x1001, 1)

    def test_compare_swap_success_and_failure(self):
        region = MemoryRegion(size=64, base_address=0x1000)
        # Empty slot: compare 0 succeeds.
        assert region.dma_compare_swap(0x1000, compare=0, swap=42) == 0
        assert int.from_bytes(region.dma_read(0x1000, 8), "big") == 42
        # Occupied slot: compare 0 fails, value unchanged, original returned.
        assert region.dma_compare_swap(0x1000, compare=0, swap=99) == 42
        assert int.from_bytes(region.dma_read(0x1000, 8), "big") == 42

    def test_compare_swap_requires_alignment(self):
        region = MemoryRegion(size=64, base_address=0x1000)
        with pytest.raises(RegionAccessError):
            region.dma_compare_swap(0x1004, 0, 1)

    def test_snapshot_is_a_detached_copy(self):
        region = MemoryRegion(size=32, base_address=0)
        region.dma_write(4, b"abcd")
        image = region.snapshot()
        region.dma_write(4, b"wxyz")
        assert len(image) == 32
        assert image[4:8] == b"abcd"
        assert region.snapshot()[4:8] == b"wxyz"

    def test_clear(self):
        region = MemoryRegion(size=16, base_address=0)
        region.dma_write(0, b"\xff" * 16)
        region.clear()
        assert region.snapshot() == b"\x00" * 16

    def test_local_offset_access(self):
        region = MemoryRegion(size=16, base_address=0xFF00)
        region.write_offset(2, b"ab")
        assert region.read_offset(2, 2) == b"ab"
        with pytest.raises(RegionAccessError):
            region.read_offset(15, 2)
        with pytest.raises(RegionAccessError):
            region.write_offset(-1, b"a")

    @given(
        offset=st.integers(min_value=0, max_value=56),
        payload=st.binary(min_size=1, max_size=8),
    )
    def test_write_read_roundtrip_property(self, offset, payload):
        region = MemoryRegion(size=64, base_address=0x2000)
        region.dma_write(0x2000 + offset, payload)
        assert region.dma_read(0x2000 + offset, len(payload)) == payload


class TestSlotLayout:
    def test_paper_figure4_layout(self):
        """160-bit values + 32-bit checksum = 24-byte slots (Figure 4)."""
        layout = SlotLayout(checksum_bits=32, value_bytes=20)
        assert layout.slot_bytes == 24
        assert layout.checksum_bytes == 4
        # 3 GB for 100M flows is ~30 B/flow; slots that fit:
        assert layout.slots_in(3 * 10**9) == 125_000_000

    def test_sub_byte_checksum_rounds_up(self):
        assert SlotLayout(checksum_bits=12, value_bytes=4).checksum_bytes == 2

    @pytest.mark.parametrize("bits,value", [(0, 4), (65, 4), (32, 0), (32, -1)])
    def test_invalid_layout_rejected(self, bits, value):
        with pytest.raises(ValueError):
            SlotLayout(checksum_bits=bits, value_bytes=value)

    def test_slots_in_small_memory(self):
        assert SlotLayout(32, 20).slots_in(23) == 0
        assert SlotLayout(32, 20).slots_in(24) == 1
        assert SlotLayout(32, 20).slots_in(47) == 1


class TestSlotCodec:
    def test_roundtrip(self):
        codec = SlotCodec(SlotLayout(checksum_bits=32, value_bytes=8))
        encoded = codec.encode(0xDEADBEEF, b"pathdata")
        assert len(encoded) == 12
        checksum, value = codec.decode(encoded)
        assert checksum == 0xDEADBEEF
        assert value == b"pathdata"

    def test_short_value_zero_padded(self):
        codec = SlotCodec(SlotLayout(checksum_bits=8, value_bytes=4))
        checksum, value = codec.decode(codec.encode(0x7F, b"ab"))
        assert checksum == 0x7F
        assert value == b"ab\x00\x00"

    def test_oversize_value_rejected(self):
        codec = SlotCodec(SlotLayout(checksum_bits=8, value_bytes=4))
        with pytest.raises(ValueError):
            codec.encode(0, b"abcde")

    def test_oversize_checksum_rejected(self):
        codec = SlotCodec(SlotLayout(checksum_bits=8, value_bytes=4))
        with pytest.raises(ValueError):
            codec.encode(0x100, b"abcd")

    def test_wrong_slot_size_rejected(self):
        codec = SlotCodec(SlotLayout(checksum_bits=8, value_bytes=4))
        with pytest.raises(ValueError):
            codec.decode(b"\x00" * 4)

    @given(
        checksum=st.integers(min_value=0, max_value=2**32 - 1),
        value=st.binary(max_size=20),
    )
    def test_roundtrip_property(self, checksum, value):
        codec = SlotCodec(SlotLayout(checksum_bits=32, value_bytes=20))
        decoded_checksum, decoded_value = codec.decode(codec.encode(checksum, value))
        assert decoded_checksum == checksum
        assert decoded_value == value.ljust(20, b"\x00")
