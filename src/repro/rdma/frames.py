"""Pooled columnar frame batches: many RoCEv2 frames as one byte matrix.

The DART report frame has a constant geometry per deployment config --
Ethernet(14) | IPv4(20) | UDP(8) | BTH(12) | RETH(16) | payload | iCRC(4)
-- so a whole batch of frames packs naturally into one ``uint8`` matrix of
shape ``(frames, frame_width)``.  :class:`FrameBatch` wraps that matrix
together with the per-frame destination endpoint, and :class:`FramePool`
recycles the backing buffers so steady-state batch traffic allocates
nothing.

Buffer ownership is refcounted: a batch and every sub-batch selected from
it share (or copy through) a pooled lease, and the buffer only returns to
the free list when the last holder releases it.  Fabrics take ownership of
batches passed to ``send_batch``; ports (NICs) only borrow them for the
duration of ``ingest_batch``.  The frame-pool tests assert the non-aliasing
consequence: a buffer is never handed out again while any in-flight batch
can still read it.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.hashing.crc import CRC32

# ---------------------------------------------------------------------------
# Wire geometry of a DART report frame (RC RDMA WRITE ONLY with RETH).
# ---------------------------------------------------------------------------

ETH_OFF = 0
IP_OFF = 14
UDP_OFF = 34
BTH_OFF = 42
RETH_OFF = 54
PAYLOAD_OFF = 70
#: Bytes of a report frame that are not payload (headers + trailing iCRC).
OVERHEAD_BYTES = PAYLOAD_OFF + 4

#: Atomic (FETCH_ADD / CMP_SWAP) frames swap the RETH for a 28-byte
#: AtomicETH at the same offset and carry no payload, so their width is a
#: constant: headers(54) + AtomicETH(28) + iCRC(4).
ATOMIC_ETH_OFF = 54
ATOMIC_FRAME_BYTES = ATOMIC_ETH_OFF + 28 + 4

#: READ requests are a RETH with no payload; READ responses put a 4-byte
#: AETH where the RETH sat, then the payload: headers(54) + AETH(4) +
#: payload + iCRC(4).
READ_REQUEST_BYTES = OVERHEAD_BYTES
AETH_OFF = 54
RESPONSE_PAYLOAD_OFF = AETH_OFF + 4

#: BTH column offsets: opcode, 24-bit destination QP, and the 32-bit word
#: whose low 24 bits are the PSN.
OPCODE_OFF = BTH_OFF
DEST_QP_OFF = BTH_OFF + 5
PSN_OFF = BTH_OFF + 8

#: Columns of the masked iCRC image that the RoCEv2 annex forces to 0xFF
#: (DSCP/ECN, TTL, IPv4 checksum, UDP checksum, BTH resv8a), relative to
#: the image layout: 8 prefix bytes then frame[14:-4].
_MASKED_COLUMNS = np.array([9, 16, 18, 19, 34, 35, 40])


def frame_width(payload_bytes: int) -> int:
    """Total wire bytes of a report frame carrying ``payload_bytes``."""
    return OVERHEAD_BYTES + payload_bytes


def icrc_rows(frames: np.ndarray) -> np.ndarray:
    """The RoCEv2 iCRC of every frame row, vectorised.

    Builds the masked CRC image for all rows at once (8 bytes of 0xFF,
    then the frame from the IPv4 header to just before the iCRC with the
    volatile bytes forced to 0xFF) and row-CRCs it in one call.  Each
    result is bit-identical to :func:`repro.rdma.packets.compute_icrc` on
    the scalar-decoded frame.
    """
    count, width = frames.shape
    masked = np.empty((count, 8 + width - 4 - IP_OFF), dtype=np.uint8)
    masked[:, :8] = 0xFF
    masked[:, 8:] = frames[:, IP_OFF : width - 4]
    masked[:, _MASKED_COLUMNS] = 0xFF
    return CRC32.compute_rows(masked)


#: Columns :func:`header_mask` compares: ethertype (2), version/IHL,
#: protocol, UDP destination port (2), IPv4 total length (2), BTH opcode.
_HEADER_COLUMNS = np.array([12, 13, 14, 23, 36, 37, 16, 17, OPCODE_OFF])


def header_mask(frames: np.ndarray, opcode: int) -> np.ndarray:
    """Rows that are well-formed RoCEv2 frames of ``opcode``, as a bool array.

    What scalar :meth:`~repro.rdma.packets.RoceV2Packet.unpack` checks
    before the iCRC (IPv4 ethertype, version/IHL, UDP, port 4791), plus
    the BTH opcode and an IPv4 total length equal to the matrix width.  A
    failing row is not necessarily bad (``unpack`` tolerates trailing
    bytes); it is one the vector paths leave to the scalar reference.
    """
    total_length = frames.shape[1] - IP_OFF
    # Ethernet..BTH and the iCRC at least; at most what 16 bits can say.
    if not RETH_OFF + 4 - IP_OFF <= total_length <= 0xFFFF:
        return np.zeros(len(frames), dtype=bool)
    expected = np.array(
        [0x08, 0x00, 0x45, 17, 0x12, 0xB7, total_length >> 8, total_length & 0xFF, opcode],
        dtype=np.uint8,
    )
    return (frames[:, _HEADER_COLUMNS] == expected).all(axis=1)


def icrc_ok(frames: np.ndarray) -> np.ndarray:
    """Rows whose trailing iCRC matches their bytes, as a bool array."""
    wire = np.ascontiguousarray(frames[:, -4:]).view("<u4").ravel()
    return wire == icrc_rows(frames)


# Big-endian column readers/writers.  Column slices of a C-contiguous
# frame matrix are strided, so readers copy the few bytes they need before
# reinterpreting; all return/accept native-order integer arrays.

def read_be16(frames: np.ndarray, offset: int) -> np.ndarray:
    """Big-endian u16 column at ``offset`` as ``uint32``."""
    return (
        np.ascontiguousarray(frames[:, offset : offset + 2])
        .view(">u2")
        .ravel()
        .astype(np.uint32)
    )


def read_be32(frames: np.ndarray, offset: int) -> np.ndarray:
    """Big-endian u32 column at ``offset`` as ``uint32``."""
    return (
        np.ascontiguousarray(frames[:, offset : offset + 4])
        .view(">u4")
        .ravel()
        .astype(np.uint32)
    )


def read_be64(frames: np.ndarray, offset: int) -> np.ndarray:
    """Big-endian u64 column at ``offset`` as ``uint64``."""
    return (
        np.ascontiguousarray(frames[:, offset : offset + 8])
        .view(">u8")
        .ravel()
        .astype(np.uint64)
    )


def read_be24(frames: np.ndarray, offset: int) -> np.ndarray:
    """Big-endian u24 column at ``offset`` as ``uint32``."""
    columns = frames[:, offset : offset + 3].astype(np.uint32)
    return (columns[:, 0] << 16) | (columns[:, 1] << 8) | columns[:, 2]


def write_be16(frames: np.ndarray, offset: int, values: np.ndarray) -> None:
    """Store ``values`` as a big-endian u16 column at ``offset``."""
    frames[:, offset : offset + 2] = (
        values.astype(">u2").view(np.uint8).reshape(-1, 2)
    )


def write_be32(frames: np.ndarray, offset: int, values: np.ndarray) -> None:
    """Store ``values`` as a big-endian u32 column at ``offset``."""
    frames[:, offset : offset + 4] = (
        values.astype(">u4").view(np.uint8).reshape(-1, 4)
    )


def write_be64(frames: np.ndarray, offset: int, values: np.ndarray) -> None:
    """Store ``values`` as a big-endian u64 column at ``offset``."""
    frames[:, offset : offset + 8] = (
        values.astype(">u8").view(np.uint8).reshape(-1, 8)
    )


def write_le32(frames: np.ndarray, offset: int, values: np.ndarray) -> None:
    """Store ``values`` as a little-endian u32 column (the iCRC trailer)."""
    frames[:, offset : offset + 4] = (
        values.astype("<u4").view(np.uint8).reshape(-1, 4)
    )


# ---------------------------------------------------------------------------
# Pooled buffers
# ---------------------------------------------------------------------------


def _capacity_class(rows: int) -> int:
    """Round a row count up to its pool size class (powers of two)."""
    capacity = 64
    while capacity < rows:
        capacity <<= 1
    return capacity


class _Lease:
    """Refcounted ownership of one pooled buffer."""

    __slots__ = ("pool", "buffer", "refs")

    def __init__(self, pool: "FramePool", buffer: np.ndarray) -> None:
        self.pool = pool
        self.buffer = buffer
        self.refs = 1

    def retain(self) -> "_Lease":
        self.refs += 1
        return self

    def release(self) -> None:
        self.refs -= 1
        if self.refs == 0:
            self.pool._reclaim(self.buffer)


class FramePool:
    """Recycles frame-matrix buffers between batches.

    Buffers are keyed by ``(frame_width, capacity_class)``; a released
    buffer is handed back verbatim to the next acquirer of the same class,
    so steady-state batch traffic reuses the same few allocations.  The
    ``in_flight`` gauge exists for the aliasing tests: it counts leases
    whose buffers are still owned by live batches.
    """

    def __init__(self) -> None:
        self._free: dict = {}
        self.allocations = 0
        self.reuses = 0
        self.in_flight = 0

    def __repr__(self) -> str:
        return (
            f"FramePool(in_flight={self.in_flight}, "
            f"allocations={self.allocations}, reuses={self.reuses})"
        )

    def acquire(self, rows: int, width: int) -> Tuple[_Lease, np.ndarray]:
        """A lease on a buffer with at least ``rows`` rows, plus the view.

        The returned view is exactly ``(rows, width)``; the backing buffer
        may be larger (its size class).
        """
        key = (width, _capacity_class(rows))
        stack: List[np.ndarray] = self._free.get(key, [])
        if stack:
            buffer = stack.pop()
            self.reuses += 1
        else:
            buffer = np.empty(key[::-1], dtype=np.uint8)
            self.allocations += 1
        self.in_flight += 1
        return _Lease(self, buffer), buffer[:rows]

    def _reclaim(self, buffer: np.ndarray) -> None:
        self.in_flight -= 1
        key = (buffer.shape[1], buffer.shape[0])
        self._free.setdefault(key, []).append(buffer)


class FrameBatch:
    """A batch of wire frames as one matrix, plus per-frame endpoints.

    Attributes
    ----------
    frames:
        ``uint8[count, frame_width]`` -- row ``i`` is frame ``i``'s exact
        wire bytes, in the order a scalar sender would have emitted them.
    endpoint_ids:
        ``int64[count]`` -- the fabric endpoint each frame is addressed to.

    Ownership: whoever holds a ``FrameBatch`` may read it until they call
    :meth:`release`.  Fabrics take ownership of batches passed to
    ``send_batch`` and release them once delivered (or queued copies of
    them); ports only borrow.
    """

    __slots__ = ("frames", "endpoint_ids", "_lease", "trace_ctx")

    def __init__(
        self,
        frames: np.ndarray,
        endpoint_ids: np.ndarray,
        lease: Optional[_Lease] = None,
    ) -> None:
        self.frames = frames
        self.endpoint_ids = endpoint_ids
        self._lease = lease
        #: Causal trace context (:class:`repro.obs.tracing.SpanContext`)
        #: when batch-granularity tracing bound this batch; None otherwise.
        self.trace_ctx = None

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def count(self) -> int:
        """Number of frames in the batch."""
        return len(self.frames)

    @property
    def width(self) -> int:
        """Wire bytes per frame."""
        return self.frames.shape[1]

    def __repr__(self) -> str:
        return f"FrameBatch(count={self.count}, width={self.width})"

    # -- ownership ------------------------------------------------------

    def release(self) -> None:
        """Give up this batch's claim on its pooled buffer (idempotent)."""
        lease, self._lease = self._lease, None
        if lease is not None:
            lease.release()

    def retain(self) -> "FrameBatch":
        """A second independently releasable handle on the same frames.

        Used by queueing fabrics: the queue keeps a retained handle while
        the caller's handle is released on return from ``send_batch``.
        """
        lease = self._lease.retain() if self._lease is not None else None
        handle = FrameBatch(self.frames, self.endpoint_ids, lease)
        handle.trace_ctx = self.trace_ctx
        return handle

    def data_ptr(self) -> int:
        """Address of the first frame byte (aliasing tests only)."""
        return self.frames.__array_interface__["data"][0]

    # -- selection / iteration -----------------------------------------

    def select(self, rows: np.ndarray) -> "FrameBatch":
        """An independently owned sub-batch of ``rows`` (in that order).

        The sub-batch copies through the pool (fancy-indexed rows are not
        contiguous), so releasing it is independent of releasing ``self``.
        """
        rows = np.asarray(rows)
        lease = None
        if self._lease is not None:
            lease, view = self._lease.pool.acquire(len(rows), self.width)
            np.take(self.frames, rows, axis=0, out=view)
            frames = view
        else:
            frames = self.frames[rows]
        sub = FrameBatch(frames, self.endpoint_ids[rows], lease)
        sub.trace_ctx = self.trace_ctx
        return sub

    def frame_bytes(self, index: int) -> bytes:
        """Frame ``index`` as standalone wire bytes (scalar-path bridge)."""
        return self.frames[index].tobytes()

    def iter_pairs(self) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(endpoint_id, frame_bytes)`` in emission order."""
        endpoint_ids = self.endpoint_ids
        frames = self.frames
        for index in range(len(frames)):
            yield int(endpoint_ids[index]), frames[index].tobytes()

    def single_endpoint(self) -> Optional[int]:
        """The one endpoint every frame targets, or None if mixed."""
        ids = self.endpoint_ids
        if len(ids) == 0:
            return None
        first = int(ids[0])
        if bool((ids == first).all()):
            return first
        return None

    def groups(self) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(endpoint_id, row_indexes)`` per endpoint.

        Endpoints appear in first-frame order and row indexes stay in
        emission order, so per-endpoint delivery order (the PSN contract)
        is preserved.
        """
        ids = self.endpoint_ids
        if len(ids) == 0:
            return
        unique, first_seen = np.unique(ids, return_index=True)
        for position in np.argsort(first_seen):
            endpoint = int(unique[position])
            yield endpoint, np.flatnonzero(ids == endpoint)
