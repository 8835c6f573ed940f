"""Registered memory regions: the landing zone for direct telemetry access.

An RDMA memory region (MR) is a pinned, registered range of host memory that
the NIC may access without CPU involvement.  One-sided verbs carry the
region's *remote key* (rkey) and a virtual address; the NIC validates both
and performs the DMA.  This module models that contract: out-of-bounds or
wrong-rkey accesses raise :class:`RegionAccessError`, which the NIC layer
translates into silently dropping the offending packet (the collector CPU
never sees it -- exactly the zero-CPU property DART relies on).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import obs


class RegionAccessError(Exception):
    """A remote access fell outside the region or used a bad rkey."""


class MemoryRegion:
    """A registered memory region backed by a ``bytearray``.

    Parameters
    ----------
    size:
        Region length in bytes.
    base_address:
        Virtual address of the first byte, as advertised to remote peers.
        RDMA requests address the region by virtual address, not offset.
    rkey:
        Remote key that one-sided operations must present.
    """

    def __init__(self, size: int, base_address: int = 0x10000, rkey: int = 0x1) -> None:
        if size <= 0:
            raise ValueError(f"region size must be positive, got {size}")
        if base_address < 0:
            raise ValueError("base_address must be non-negative")
        self.size = size
        self.base_address = base_address
        self.rkey = rkey
        self._buffer = bytearray(size)
        registry = obs.get_registry()
        labels = registry.instance_labels("MemoryRegion")
        #: Writes applied (remote DMA plus local offset writes).
        self.c_writes = registry.counter("mem_writes", labels=labels)
        #: Bytes written into the region.
        self.c_bytes_written = registry.counter(
            "mem_bytes_written", labels=labels
        )
        #: Atomics applied (FETCH_ADD and CMP_SWAP).
        self.c_atomics = registry.counter("mem_atomics", labels=labels)
        #: Writes that landed on a live (non-zero) slot -- the observable
        #: collision pressure behind the paper's query-success model.
        self.c_slot_overwrites = registry.counter(
            "mem_slot_overwrites", labels=labels
        )
        self._track_overwrites = self.c_slot_overwrites.enabled

    @property
    def write_count(self) -> int:
        """Writes applied to the region (remote DMA plus local writes)."""
        return self.c_writes.value

    @property
    def atomic_count(self) -> int:
        """Atomic operations applied to the region."""
        return self.c_atomics.value

    def __repr__(self) -> str:
        return (
            f"MemoryRegion(size={self.size}, "
            f"base_address={self.base_address:#x}, rkey={self.rkey:#x})"
        )

    # ------------------------------------------------------------------
    # Address translation and validation
    # ------------------------------------------------------------------

    def _offset(self, address: int, length: int, rkey: Optional[int]) -> int:
        """The region offset of ``[address, address + length)``, which must
        lie inside the region, under ``rkey`` (if given) the region's."""
        if rkey is not None and rkey != self.rkey:
            raise RegionAccessError(
                f"rkey {rkey:#x} does not match region rkey {self.rkey:#x}"
            )
        offset = address - self.base_address
        if not 0 <= offset <= offset + length <= self.size:
            raise RegionAccessError(
                f"access [{address:#x}, +{length}) outside region "
                f"[{self.base_address:#x}, +{self.size})"
            )
        return offset

    def _windows(self, width: int) -> np.ndarray:
        """A strided view whose row ``o`` is ``buffer[o : o + width]``.

        Every columnar gather and scatter indexes it by offset: no ``count x
        width`` index matrix, and none of the per-call checks that make
        ``sliding_window_view`` cost a small batch more.  Writing a row
        writes the region.  Callers validate bounds first.
        """
        rows = max(self.size - width + 1, 0)
        return np.ndarray((rows, width), np.uint8, self._buffer, 0, (1, 1))

    # ------------------------------------------------------------------
    # DMA operations (performed by the NIC model)
    # ------------------------------------------------------------------

    def dma_write(self, address: int, payload: bytes, rkey: Optional[int] = None) -> None:
        """Write ``payload`` at virtual ``address`` (RDMA WRITE semantics),
        :meth:`_offset`'s checks inline (same order, same errors)."""
        length = len(payload)
        offset = address - self.base_address
        end = offset + length
        if (rkey is not None and rkey != self.rkey) or not 0 <= offset <= end <= self.size:
            self._offset(address, length, rkey)  # raises the error it describes
        if self._track_overwrites and any(self._buffer[offset:end]):
            self.c_slot_overwrites.inc()
        self._buffer[offset:end] = payload
        self.c_writes.inc()
        self.c_bytes_written.inc(length)

    def dma_read(self, address: int, length: int, rkey: Optional[int] = None) -> bytes:
        """Read ``length`` bytes at virtual ``address`` (RDMA READ semantics)."""
        offset = self._offset(address, length, rkey)
        return bytes(self._buffer[offset : offset + length])

    def dma_fetch_add(
        self, address: int, addend: int, rkey: Optional[int] = None
    ) -> int:
        """64-bit atomic fetch-and-add; returns the *original* value.

        RDMA atomics operate on 8-byte, naturally aligned words in network
        byte order, wrapping modulo 2**64.
        """
        offset = self._offset(address, 8, rkey)
        if address % 8 != 0:
            raise RegionAccessError(f"atomic address {address:#x} not 8-byte aligned")
        original = int.from_bytes(self._buffer[offset : offset + 8], "big")
        updated = (original + addend) & 0xFFFFFFFFFFFFFFFF
        self._buffer[offset : offset + 8] = updated.to_bytes(8, "big")
        self.c_atomics.inc()
        return original

    def dma_fetch_add_many(
        self,
        addresses: np.ndarray,
        addends: np.ndarray,
        rkey: Optional[int] = None,
    ) -> int:
        """Batched 64-bit atomic fetch-and-adds in one columnar pass.

        ``addresses`` are virtual addresses (like :meth:`dma_fetch_add`)
        and ``addends`` the matching add operands; both are interpreted as
        ``uint64``.  The memory image and atomic counter are identical to
        calling :meth:`dma_fetch_add` per element in order -- adds commute,
        duplicate addresses accumulate, and sums wrap modulo 2**64.  The
        whole batch is validated before any cell is touched (the NIC's
        vectorised ingest pre-filters, so a raise here means a caller bug).
        Returns the number of atomics applied.
        """
        addresses = np.asarray(addresses, dtype=np.uint64)
        addends = np.asarray(addends, dtype=np.uint64)
        count = len(addresses)
        if count == 0:
            return 0
        if rkey is not None and rkey != self.rkey:
            raise RegionAccessError(
                f"rkey {rkey:#x} does not match region rkey {self.rkey:#x}"
            )
        offsets = addresses.astype(np.int64) - self.base_address
        bad = (offsets < 0) | (offsets + 8 > self.size) | (offsets % 8 != 0)
        if bool(bad.any()):
            address = int(addresses[int(np.argmax(bad))])
            raise RegionAccessError(
                f"atomic access at {address:#x} outside region or unaligned"
            )
        unique, inverse = np.unique(offsets, return_inverse=True)
        sums = np.zeros(len(unique), dtype=np.uint64)
        np.add.at(sums, inverse, addends)
        windows = self._windows(8)
        cells = windows[unique].view(">u8").ravel()
        updated = cells.astype(np.uint64) + sums  # array sums wrap, unwarned
        windows[unique] = updated.astype(">u8").view(np.uint8).reshape(-1, 8)
        self.c_atomics.inc(count)
        return count

    def dma_compare_swap(
        self,
        address: int,
        compare: int,
        swap: int,
        rkey: Optional[int] = None,
    ) -> int:
        """64-bit atomic compare-and-swap; returns the *original* value.

        The swap value is stored only if the original equals ``compare``.
        """
        offset = self._offset(address, 8, rkey)
        if address % 8 != 0:
            raise RegionAccessError(f"atomic address {address:#x} not 8-byte aligned")
        original = int.from_bytes(self._buffer[offset : offset + 8], "big")
        if original == compare:
            self._buffer[offset : offset + 8] = (
                swap & 0xFFFFFFFFFFFFFFFF
            ).to_bytes(8, "big")
        self.c_atomics.inc()
        return original

    # ------------------------------------------------------------------
    # Local (collector-side) access for queries and snapshots
    # ------------------------------------------------------------------

    def read_offset(self, offset: int, length: int) -> bytes:
        """Local read by offset; used by the collector's own query engine."""
        if offset < 0 or offset + length > self.size:
            raise RegionAccessError(
                f"local read [{offset}, +{length}) outside region of size {self.size}"
            )
        return bytes(self._buffer[offset : offset + length])

    def write_offset(self, offset: int, payload: bytes) -> None:
        """Local write by offset; used by tests and epoch restores."""
        if offset < 0 or offset + len(payload) > self.size:
            raise RegionAccessError(
                f"local write [{offset}, +{len(payload)}) outside region "
                f"of size {self.size}"
            )
        end = offset + len(payload)
        if self._track_overwrites and any(self._buffer[offset:end]):
            self.c_slot_overwrites.inc()
        self._buffer[offset:end] = payload
        self.c_writes.inc()
        self.c_bytes_written.inc(len(payload))

    def write_offset_columnar(
        self, offsets: np.ndarray, payloads: np.ndarray
    ) -> int:
        """Columnar batched writes: all payloads share one width.

        ``offsets`` is an integer array and ``payloads`` a matching
        ``uint8[count, width]`` matrix; row ``i`` lands at ``offsets[i]``.
        Results (memory image, write/overwrite counters) are identical to
        calling :meth:`write_offset` per row in order, provided target
        ranges are pairwise disjoint-or-identical -- true by construction
        for slot-aligned telemetry writes, which is the only caller.
        Bounds are validated for the whole batch before any byte lands.
        Returns the number of writes applied.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        count = len(offsets)
        if count == 0:
            return 0
        width = payloads.shape[1]
        bad = (offsets < 0) | (offsets + width > self.size)
        if bad.any():
            raise RegionAccessError(
                f"local write [{int(offsets[np.argmax(bad)])}, +{width}) "
                f"outside region of size {self.size}"
            )
        windows = self._windows(width)
        # Group rows by offset, stable, so "previous write to this slot"
        # is well defined for both overwrite accounting and last-wins.
        order = np.argsort(offsets, kind="stable")
        sorted_offsets = offsets[order]
        is_first = np.empty(count, dtype=bool)
        is_first[0] = True
        is_first[1:] = sorted_offsets[1:] != sorted_offsets[:-1]
        if self._track_overwrites:
            # First write per slot overwrites iff the slot was live before
            # the batch; each repeat overwrites iff the preceding write to
            # the same slot carried non-zero bytes.
            overwrites = int(windows[sorted_offsets[is_first]].any(axis=1).sum())
            repeat_positions = np.flatnonzero(~is_first)
            if len(repeat_positions):
                previous_rows = order[repeat_positions - 1]
                overwrites += int(payloads[previous_rows].any(axis=1).sum())
            if overwrites:
                self.c_slot_overwrites.inc(overwrites)
        # Last-wins scatter: numpy fancy assignment with duplicate indexes
        # is unordered, so only the final write per slot is applied.
        is_last = np.empty(count, dtype=bool)
        is_last[-1] = True
        is_last[:-1] = sorted_offsets[1:] != sorted_offsets[:-1]
        final_rows = order[is_last]
        windows[sorted_offsets[is_last]] = payloads[final_rows]
        self.c_writes.inc(count)
        self.c_bytes_written.inc(count * width)
        return count

    def read_offset_columnar(self, offsets: np.ndarray, width: int) -> np.ndarray:
        """Columnar batched reads: ``uint8[count, width]``, row ``i`` from
        ``offsets[i]``.

        The gather half of :meth:`write_offset_columnar`: each row is the
        bytes :meth:`read_offset` returns for the same offset, copied out
        of the region in one pass.  Bounds are validated for the whole
        batch first.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        bad = (offsets < 0) | (offsets + width > self.size)
        if bad.any():
            raise RegionAccessError(
                f"local read [{int(offsets[np.argmax(bad)])}, +{width}) "
                f"outside region of size {self.size}"
            )
        return self._windows(width)[offsets]

    def snapshot(self) -> bytes:
        """An immutable copy of the whole region (epoch persistence, tests)."""
        return bytes(self._buffer)

    def clear(self) -> None:
        """Zero the region (a fresh epoch)."""
        self._buffer[:] = bytes(self.size)
