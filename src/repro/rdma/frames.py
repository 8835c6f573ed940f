"""Pooled columnar frame batches: many RoCEv2 frames as one byte matrix.

A frame shape (the DART report, a FETCH_ADD, a READ request or response)
has a constant geometry per deployment config, so a whole batch of frames
packs naturally into one ``uint8`` matrix of shape ``(frames,
frame_width)``.  :class:`FrameBatch` wraps that matrix together with the
per-frame destination endpoint, and :class:`FramePool` recycles the
backing buffers so steady-state batch traffic allocates nothing.  Every
sender plans each of its frame shapes once, as a :class:`FramePlan`, where
the shape is fixed; one frame is stamped by the plan, a batch by
:class:`TemplateEncoder` over the plan's row.  Every offset and width here
is derived from :mod:`repro.rdma.layout`.

Buffer ownership is refcounted: a batch and every sub-batch selected from
it share (or copy through) a pooled lease, and the buffer only returns to
the free list when the last holder releases it.  Fabrics take ownership of
batches passed to ``send_batch``; ports (NICs) only borrow them for the
duration of ``ingest_batch``.  The frame-pool tests assert the non-aliasing
consequence: a buffer is never handed out again while any in-flight batch
can still read it.
"""

from __future__ import annotations

import functools
import zlib
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.rdma.layout import (
    AETH,
    ATOMIC_ETH,
    BTH,
    ETHERNET,
    FIELD_NAMES,
    ICRC,
    ICRC_MASKED_COLUMNS,
    ICRC_PREFIX_BYTES,
    IPV4,
    RETH,
    UDP,
    span,
    writer,
)
from repro.rdma.packets import _ICRC_SEED, _icrc_image

# ---------------------------------------------------------------------------
# Wire geometry, derived from the layout's field tables.
# ---------------------------------------------------------------------------

ETH_OFF = ETHERNET.offset
IP_OFF = IPV4.offset
UDP_OFF = UDP.offset
BTH_OFF = BTH.offset
ICRC_BYTES = ICRC.size

#: A DART report is an RC RDMA WRITE ONLY: RETH, then the slot payload.
RETH_OFF = RETH.offset
PAYLOAD_OFF = RETH.end
#: Bytes of a report frame that are not payload (headers + trailing iCRC).
OVERHEAD_BYTES = PAYLOAD_OFF + ICRC_BYTES

#: Atomic (FETCH_ADD / CMP_SWAP) frames carry an AtomicETH where the RETH
#: sits and no payload, so their width is a constant.
ATOMIC_ETH_OFF = ATOMIC_ETH.offset
ATOMIC_FRAME_BYTES = ATOMIC_ETH.end + ICRC_BYTES

#: READ requests are a RETH with no payload; READ responses put an AETH
#: where the RETH sat, then the payload.
READ_REQUEST_BYTES = OVERHEAD_BYTES
AETH_OFF = AETH.offset
RESPONSE_PAYLOAD_OFF = AETH.end

#: BTH column offsets: opcode, 24-bit destination QP, and the 32-bit word
#: whose low 24 bits are the PSN.
OPCODE_OFF = span("bth.opcode")[0]
DEST_QP_OFF = span("bth.dest_qp")[0]
PSN_OFF = span("bth.ack_request")[0]

_MASKED_COLUMNS = np.array(ICRC_MASKED_COLUMNS)

#: Response plans a NIC may memoise before it starts over, and iCRC OR rows
#: :func:`icrc_rows` keeps.  Bounded because some of what a response reflects
#: is sender-chosen (a READ's addresses and length, and so a response's
#: width); a deployment has far fewer.
TEMPLATE_MEMO_SIZE = 256


def frame_width(payload_bytes: int) -> int:
    """Total wire bytes of a report frame carrying ``payload_bytes``."""
    return OVERHEAD_BYTES + payload_bytes


@functools.lru_cache(maxsize=TEMPLATE_MEMO_SIZE)
def _icrc_or_row(covered: int) -> np.ndarray:
    """0xFF on the masked columns of a ``covered``-byte iCRC span, else 0."""
    row = np.zeros(covered, dtype=np.uint8)
    row[_MASKED_COLUMNS - ICRC_PREFIX_BYTES] = 0xFF
    row.flags.writeable = False  # shared by every caller of this width
    return row


def icrc_rows(frames: np.ndarray) -> np.ndarray:
    """The RoCEv2 iCRC of every frame row, vectorised.

    The masked image of every row (the frame from the IPv4 header to just
    before the iCRC, its volatile bytes forced to 0xFF) is one OR against a
    per-width row; ``zlib.crc32`` is then mapped over the rows as ``bytes``
    records, all in C, each seeded with the CRC of the constant 0xFF prefix
    (zlib chains on a finalised CRC), so the prefix is never copied.  Each
    result is bit-identical to :func:`repro.rdma.packets.compute_icrc` on
    the scalar-decoded frame: both mask ``layout.ICRC_MASKED_COLUMNS``.
    """
    covered = frames[:, IP_OFF : frames.shape[1] - ICRC_BYTES]
    width = covered.shape[1]
    masked = np.bitwise_or(covered, _icrc_or_row(width))
    # One void record per row: ``tolist`` hands back one ``bytes`` each.
    records = np.ascontiguousarray(masked).view(f"V{width}").ravel().tolist()
    return np.fromiter(
        map(zlib.crc32, records, repeat(_ICRC_SEED)), dtype=np.uint32, count=len(records)
    )


def icrc_ok(frames: np.ndarray) -> np.ndarray:
    """Rows whose trailing iCRC matches their bytes, as a bool array."""
    wire = np.ascontiguousarray(frames[:, -ICRC_BYTES:]).view(f"<u{ICRC_BYTES}").ravel()
    return wire == icrc_rows(frames)


# Big-endian field readers/writers.  Column slices of a C-contiguous frame
# matrix are strided, so both go through a contiguous copy; all return /
# accept native-order integer arrays (``uint32`` for fields of up to four
# bytes, ``uint64`` for wider ones).


def _column(start: int, stop: int) -> Tuple[int, int, int, str, type]:
    """``(start, stop, pad, big-endian view, native dtype)`` of a column.

    A width numpy has an integer for is viewed as is (``pad`` 0); any
    other (the 24-bit QP / PSN / MSN, a MAC) is right-aligned in the next
    machine word, ``pad`` zero bytes in front.
    """
    width = stop - start
    word = width if width in (1, 2, 4, 8) else 4 if width < 4 else 8
    return start, stop, word - width, f">u{word}", np.uint32 if word <= 4 else np.uint64


#: Every ``"header.field"`` of the layout as a column, resolved once at import.
_COLUMNS = {name: _column(*span(name)) for name in FIELD_NAMES}


def read_field(frames: np.ndarray, name: str) -> np.ndarray:
    """The ``"header.field"`` column of every row, as native integers."""
    start, stop, pad, big_endian, native = _COLUMNS[name]
    if pad:
        raw = np.zeros((len(frames), stop - start + pad), dtype=np.uint8)
        raw[:, pad:] = frames[:, start:stop]
    else:
        raw = np.ascontiguousarray(frames[:, start:stop])
    return raw.view(big_endian).ravel().astype(native)


def _write_column(frames: np.ndarray, column: tuple, values: np.ndarray) -> None:
    start, stop, pad, big_endian, _native = column
    if values.ndim == 2:  # the field's big-endian bytes already
        frames[:, start:stop] = values
        return
    frames[:, start:stop] = (
        values.astype(big_endian).view(np.uint8).reshape(len(values), -1)[:, pad:]
    )


def write_field(frames: np.ndarray, name: str, values: np.ndarray) -> None:
    """Store ``values`` (integers, or their ``uint8[rows, width]`` bytes) as
    the big-endian ``"header.field"`` column."""
    _write_column(frames, _COLUMNS[name], values)


def write_be32(frames: np.ndarray, offset: int, values: np.ndarray) -> None:
    """Store ``values`` as a big-endian u32 column at ``offset``."""
    _write_column(frames, _column(offset, offset + 4), values)


def write_be64(frames: np.ndarray, offset: int, values: np.ndarray) -> None:
    """Store ``values`` as a big-endian u64 column at ``offset``."""
    _write_column(frames, _column(offset, offset + 8), values)


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
        #: when a tracer bound this batch (``bind_batch``); None otherwise.
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
        # A batch already one run per endpoint (a READ pass's) is cut, not sorted.
        bounds = [0, *(np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist(), len(ids)]
        heads = ids[bounds[:-1]].tolist()
        if len(set(heads)) == len(heads):
            yield from zip(heads, map(np.arange, bounds, bounds[1:]))
            return
        unique, first_seen = np.unique(ids, return_index=True)
        for position in np.argsort(first_seen):
            endpoint = int(unique[position])
            yield endpoint, np.flatnonzero(ids == endpoint)


# ---------------------------------------------------------------------------
# Template-and-patch encoding
# ---------------------------------------------------------------------------


class TemplateEncoder:
    """Many frames of one shape from scalar-packed templates.

    Every constant byte of a batch-encoded frame -- addresses, the IPv4
    checksum, lengths, QP, rkey -- comes from a frame the scalar codec
    packed, so the rows are byte-identical to the scalar path by
    construction; only the fields that vary per frame are patched in.
    ``templates`` are equally wide plan rows (:attr:`FramePlan.row`); most
    shapes have one, the switch one per collector endpoint.
    """

    def __init__(self, *templates: np.ndarray) -> None:
        self.templates = templates

    def stamp(
        self,
        pool: Optional[FramePool],
        endpoint_ids: np.ndarray,
        fields: Dict[str, np.ndarray],
        payload: Optional[np.ndarray] = None,
        template_of: Optional[np.ndarray] = None,
    ) -> FrameBatch:
        """One frame per entry of ``endpoint_ids``, as a :class:`FrameBatch`.

        Acquires the matrix from ``pool`` (``None``: a fresh array nobody
        has to release), broadcasts the template (row ``i`` takes template
        ``template_of[i]`` when there are several), writes each named
        ``"header.field"`` column of ``fields``, lays ``payload`` rows
        against the trailer, and computes the iCRC last.
        """
        count, width = len(endpoint_ids), len(self.templates[0])
        if pool is None:
            lease, frames = None, np.empty((count, width), dtype=np.uint8)
        else:
            lease, frames = pool.acquire(count, width)
        if template_of is None:
            frames[:] = self.templates[0]
        else:
            np.take(np.stack(self.templates), template_of, axis=0, out=frames)
        for name, values in fields.items():
            write_field(frames, name, values)
        if payload is not None:
            frames[:, -ICRC_BYTES - payload.shape[1] : -ICRC_BYTES] = payload
        write_le32(frames, width - ICRC_BYTES, icrc_rows(frames))
        return FrameBatch(frames, endpoint_ids, lease)


_ICRC_INTO = ICRC.struct.pack_into


class FramePlan:
    """One frame shape, planned once where it is fixed (a lookup row's
    install, a translator's or reader's construction, a NIC's first response
    of a shape) from the frame ``RoceV2Packet.pack`` emits with the varying
    fields zeroed and the names of those fields.

    The plan keeps that template as bytes, the :func:`~repro.rdma.layout.writer`
    of each leading and trailing run of the varying fields, and the CRC of the
    masked iCRC image up to the first varying byte.  :meth:`stamp` writes the
    fields and a payload and CRCs only from the first varying byte on.  Frames
    that share their leading fields take it in two steps: :meth:`fix` those and
    the payload once, then :meth:`finish` each frame.  A batch is
    ``TemplateEncoder(plan.row)``.  Every frame equals ``pack`` of its fields.
    """

    __slots__ = ("template", "_heads", "_tails", "_write", "_at", "_crc", "_flip", "_end")

    def __init__(self, template: bytes, *varying: str) -> None:
        self.template = template = bytes(template)
        self._end = end = len(template) - ICRC_BYTES
        starts = [span(name)[0] for name in varying] + [end]
        self._at = at = min(starts)
        shift = ICRC_PREFIX_BYTES - IP_OFF
        masked = {column - shift for column in ICRC_MASKED_COLUMNS}
        if at < IP_OFF or any(masked.intersection(range(*span(name))) for name in varying):
            raise ValueError("a plan varies only fields the iCRC covers unmasked")
        image = _icrc_image(template[IP_OFF:end])

        def flip(start: int, stop: int) -> int:
            # What turns a CRC of the bytes [start, stop), from any seed, into
            # the CRC of their iCRC image: a CRC is affine in its bytes, so the
            # two differ by the masked columns alone, which no frame varies.
            return zlib.crc32(image[start + shift : stop + shift]) ^ zlib.crc32(template[start:stop])

        # Per count of leading fields, the writer of those and of the others,
        # the first byte the others vary, and the CRC flip before and from it.
        stops = [min(starts[n:]) for n in range(len(starts))]
        self._heads = [(writer(*varying[:n]), stop, flip(at, stop)) for n, stop in enumerate(stops)]
        self._tails = [(writer(*varying[n:]), stop, flip(stop, end)) for n, stop in enumerate(stops)]
        self._write, _, self._flip = self._heads[-1]
        self._crc = zlib.crc32(image[: at + shift])

    @property
    def row(self) -> np.ndarray:
        """The template as a read-only row: what a batch of the shape broadcasts."""
        return np.frombuffer(self.template, dtype=np.uint8)

    def stamp(self, *values: int, payload: bytes = b"") -> bytes:
        """One frame: each varying field holds its value (in the plan's
        order), ``payload`` lies against the trailer, and the iCRC is last."""
        frame = bytearray(self.template)
        self._write(frame, values)
        end = self._end
        if payload:
            frame[end - len(payload) : end] = payload
        _ICRC_INTO(frame, end, zlib.crc32(frame[self._at : end], self._crc) ^ self._flip)
        return bytes(frame)

    def fix(self, *values: int, payload: bytes = b"") -> Tuple[bytearray, int, int]:
        """A copy of the template whose leading varying fields hold ``values``
        and whose payload is ``payload``, the CRC of its iCRC image up to the
        fields left, and their count: what :meth:`finish` completes."""
        count = len(values)
        write, stop, flip = self._heads[count]
        frame = bytearray(self.template)
        write(frame, values)
        if payload:
            end = self._end
            frame[end - len(payload) : end] = payload
        return frame, zlib.crc32(frame[self._at : stop], self._crc) ^ flip, count

    def finish(self, fixed: Tuple[bytearray, int, int], *values: int) -> bytes:
        """The frame ``fixed`` with its remaining fields holding ``values``, as
        wire bytes (written over ``fixed``'s frame, which its finishes share)."""
        frame, crc, count = fixed
        write, stop, flip = self._tails[count]
        write(frame, values)
        end = self._end
        _ICRC_INTO(frame, end, zlib.crc32(frame[stop:end], crc) ^ flip)
        return bytes(frame)
