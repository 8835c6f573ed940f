"""Switch-side verb translators: DTA primitives lowered to RoCEv2 verbs.

The DTA follow-up paper defines four collection primitives; a "translator"
is the switch-resident logic that lowers each one onto verbs a plain RNIC
already executes, so the collector stays zero-CPU:

- **Key-Increment** lowers to one RC FETCH_ADD per count-min row
  (:class:`KeyIncrementTranslator`), targeting the collector's counter
  bank.
- **Sketch-Merge** lowers a whole switch-resident sketch to a bank of
  FETCH_ADDs -- one per non-zero cell -- into collector sketch memory
  (:class:`SketchMergeTranslator`); atomic adds commute, so merges from
  many switches interleave safely.
- **Append** lowers to a FETCH_ADD on a shared tail pointer (multi-writer
  slot reservation via the returned original value) followed by RDMA
  WRITEs into the reserved ring slots (:class:`AppendTranslator`).

Each translator plans its frame shapes once, at construction (a
:class:`~repro.rdma.frames.FramePlan` each): batched entry points stamp a
pooled matrix from a plan's row
(:class:`~repro.rdma.frames.TemplateEncoder`) for the fabric's
``send_batch`` seam, scalar ones a frame at a time from the plan itself, so
the two emit the same bytes.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.fabric.fabric import Fabric
from repro.hashing.hash_family import HashFamily, Key, fold_key, fold_keys
from repro.rdma.frames import (
    FrameBatch,
    FramePlan,
    FramePool,
    ICRC_BYTES,
    RESPONSE_PAYLOAD_OFF,
    TemplateEncoder,
    icrc_ok,
    read_field,
)
from repro.rdma.layout import columns
from repro.rdma.packets import (
    PLAN_FIELDS,
    AtomicEth,
    Bth,
    Opcode,
    PacketDecodeError,
    Reth,
    RoceV2Packet,
    decode_frame,
    header_plan,
)
from repro.rdma.qp import PSN_MODULUS, psn_run

#: Hash-family member base reserved for counter/sketch rows; row ``r`` of
#: every count-min bank is addressed by member ``COUNTER_FUNCTION_BASE + r``.
COUNTER_FUNCTION_BASE = 0x20000000

#: Reads flat count-min cells: cell numbers in, one word per cell out
#: (``None`` for a cell whose READ was lost).
CellReader = Callable[[List[int]], Sequence[Optional[int]]]

#: Reads a run of addresses as ``OneSidedReader.read_run`` does:
#: ``(addresses, length) -> (uint8[n, length] payloads, bool[n] answered)``.
ReadRun = Callable[[Sequence[int], int], Tuple[np.ndarray, np.ndarray]]


class CountMinAddressing(NamedTuple):
    """Where a folded key lives in a ``rows x cells_per_row`` count-min bank.

    The one place count-min addressing is written down: switch sketches,
    the Key-Increment lowering and every estimate reader derive cells
    here, from the key's lane.  A cell is its flat number in the row-major
    matrix (``row * cells_per_row + index``); two banks address alike
    exactly when these tuples are equal.
    """

    family: HashFamily
    rows: int
    cells_per_row: int

    def cells(self, lane: int) -> List[int]:
        """The lane's cell in every row, row 0 first."""
        mix, width = self.family.hash_folded, self.cells_per_row
        return [
            row * width + mix(lane, COUNTER_FUNCTION_BASE + row) % width
            for row in range(self.rows)
        ]

    def cells_array(self, lanes: np.ndarray) -> np.ndarray:
        """:meth:`cells` over a lane array: ``uint64[n, rows]``, one mix pass."""
        rows, width = self.rows, np.uint64(self.cells_per_row)
        indexes = self.family.hash_folded_array(
            lanes, range(COUNTER_FUNCTION_BASE, COUNTER_FUNCTION_BASE + rows)
        ) % width
        return (indexes + np.arange(rows, dtype=np.uint64)[:, None] * width).T

    def key_cells(self, key: Key) -> List[int]:
        """:meth:`cells` for a key: the one fold of a scalar count-min update."""
        return self.cells(fold_key(key))

    def estimates(
        self, lanes: Iterable[int], read_cells: CellReader
    ) -> List[Optional[int]]:
        """The count-min read: per lane, the minimum across its row cells.

        Every lane's cells go to ``read_cells`` in one call (lane-major),
        so a remote reader pipelines the whole run; lost cells are left
        out of the minimum and a lane with none left estimates ``None``.
        """
        rows = self.rows
        words = read_cells([cell for lane in lanes for cell in self.cells(int(lane))])
        return [
            min(
                (word for word in words[start : start + rows] if word is not None),
                default=None,
            )
            for start in range(0, len(words), rows)
        ]

    def estimate(self, key: Key, read_cells: CellReader) -> Optional[int]:
        """:meth:`estimates` for one key: the one fold of a scalar estimate."""
        return self.estimates((fold_key(key),), read_cells)[0]


def check_amount(amount: int) -> None:
    """Reject an increment a FETCH_ADD cannot carry, before any side effect."""
    if not 0 <= amount < 1 << 64:
        raise ValueError(
            f"amount must be a non-negative 64-bit addend, got {amount}"
        )


class AppendReserveError(RuntimeError):
    """An Append tail reservation got no response within its retry budget."""


class ResponseFrame(NamedTuple):
    """One frame response as :meth:`ResponseDemux.take` hands it out."""

    opcode: int
    psn: int
    payload: bytes


#: The columns a response matrix's rows must share with row 0 for row 0's
#: header plan to stand for them.
_PLAN_COLUMNS = np.array(columns(*PLAN_FIELDS))


class ReadResponseRows(NamedTuple):
    """The READ responses of one matrix addressed to one QP, as columns:
    what :meth:`ResponseDemux.take` hands out for a batch response."""

    psns: np.ndarray
    #: ``uint8[rows, payload_bytes]`` -- row ``i`` is response ``i``'s payload.
    payloads: np.ndarray


class ResponseDemux:
    """Buckets polled responses by destination QP.

    ``Fabric.poll`` drains *every* queued response for an endpoint, so two
    translators polling the same collector would steal each other's atomic
    ACKs.  All requesters sharing an endpoint share one demux instead:
    :meth:`poll` drains the fabric once and files each decodable response
    under its BTH destination QP; :meth:`take` hands a requester exactly
    its own inbox: a :class:`ResponseFrame` per frame response,
    :class:`ReadResponseRows` per batch response (decoded column-wise
    under the same checks).
    Undecodable responses are dropped and counted either way.
    """

    def __init__(self) -> None:
        self._inboxes: Dict[int, list] = {}
        registry = obs.get_registry()
        #: Responses dropped: undecodable / failed iCRC.
        self.c_dropped_decode = registry.counter(
            "demux_dropped_decode",
            labels=registry.instance_labels("ResponseDemux"),
        )

    def __repr__(self) -> str:
        pending = sum(len(inbox) for inbox in self._inboxes.values())
        return f"ResponseDemux(pending={pending})"

    def poll(self, fabric: Fabric, endpoint_id: int) -> int:
        """Drain ``endpoint_id``'s responses into per-QP inboxes.

        Returns the number of responses filed; undecodable ones are
        dropped and counted (the response leg is modelled lossless, so
        this only fires on foreign traffic).
        """
        filed = 0
        for response in fabric.poll(endpoint_id):
            if isinstance(response, FrameBatch):
                filed += self._file_batch(response.frames)
            else:
                filed += self._file_frame(response)
        return filed

    def _file_frame(self, frame: bytes) -> int:
        """Decode and file one response frame (the scalar reference)."""
        decoded = decode_frame(frame)
        if decoded is None:
            self.c_dropped_decode.inc()
            return 0
        opcode, dest_qp, psn, _fields, payload = decoded
        self._inboxes.setdefault(dest_qp, []).append(ResponseFrame(opcode, psn, payload))
        return 1

    def _file_batch(self, frames: np.ndarray) -> int:
        """Decode and file one READ-response matrix, column-wise.

        Rows pass exactly what :meth:`_file_frame` passes: rows that agree
        with row 0 on the header plan's key share row 0's plan -- a READ
        RESPONSE spanning the whole row, or the matrix is not one -- and
        then need only their iCRC.  Any other row takes the scalar decode,
        which files or drops it on its own terms.
        """
        try:  # row 0's plan; an empty matrix has none
            opcode, qp_number, end, *_ = header_plan(frames[:1].tobytes())
        except PacketDecodeError:
            opcode = end = None
        if opcode == Opcode.RC_RDMA_READ_RESPONSE_ONLY and end == frames.shape[1]:
            shaped = (frames[:, _PLAN_COLUMNS] == frames[0, _PLAN_COLUMNS]).all(axis=1)
        else:
            shaped = np.zeros(len(frames), dtype=bool)
        filed = 0
        if not shaped.all():
            for row in np.flatnonzero(~shaped).tolist():
                filed += self._file_frame(frames[row].tobytes())
            frames = frames[shaped]
            if not len(frames):
                return filed
        intact = icrc_ok(frames)
        if not intact.all():
            self.c_dropped_decode.inc(len(frames) - int(intact.sum()))
            frames = frames[intact]
        if len(frames):
            self._inboxes.setdefault(qp_number, []).append(
                ReadResponseRows(
                    read_field(frames, "bth.psn"), frames[:, RESPONSE_PAYLOAD_OFF:-ICRC_BYTES]
                )
            )
        return filed + len(frames)

    def take(self, qp_number: int) -> list:
        """Remove and return every buffered response addressed to a QP.

        Entries are :class:`ResponseFrame` (frame responses) and
        :class:`ReadResponseRows` (batch responses), in arrival order.
        """
        return self._inboxes.pop(qp_number, [])


class PrimitiveTranslator:
    """Shared switch-side state for one primitive's verb lowering.

    Owns the requester-side PSN counter, a frame pool for columnar
    encodes, and the per-primitive latency histogram.  Subclasses
    implement one DTA primitive each.

    Parameters
    ----------
    fabric:
        The transport lowered verbs traverse.
    endpoint_id:
        Fabric endpoint of the target collector NIC.
    qp_number:
        Destination QP stamped into every request BTH.
    rkey:
        Remote key of the collector memory region.
    """

    #: Primitive name, used as the latency histogram's stage label.
    kind = "primitive"

    def __init__(
        self,
        fabric: Fabric,
        endpoint_id: int,
        qp_number: int,
        *,
        rkey: int,
    ) -> None:
        self.fabric = fabric
        self.endpoint_id = endpoint_id
        self.qp_number = qp_number
        self.rkey = rkey
        self._psn = 0
        self._pool = FramePool()
        #: Every FETCH_ADD this translator sends: address, addend and PSN vary.
        self._add_plan = FramePlan(
            RoceV2Packet(
                bth=Bth(opcode=int(Opcode.RC_FETCH_ADD), dest_qp=qp_number),
                atomic_eth=AtomicEth(rkey=rkey),
            ).pack(),
            "atomic_eth.virtual_address", "atomic_eth.swap_add", "bth.psn",
        )
        registry = obs.get_registry()
        self._registry = registry
        self._tracer = obs.get_tracer()
        self._labels = registry.instance_labels(type(self).__name__)
        self._t_batch = registry.stage(f"primitive_{self.kind}")

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(endpoint={self.endpoint_id}, "
            f"qp={self.qp_number:#x}, psn={self._psn})"
        )

    @property
    def psn(self) -> int:
        """The next PSN this translator will stamp."""
        return self._psn

    def _next_psn(self) -> int:
        """Allocate one PSN (24-bit wrap)."""
        psn = self._psn
        self._psn = (psn + 1) % PSN_MODULUS
        return psn

    def _psn_sequence(self, count: int) -> np.ndarray:
        """Allocate ``count`` consecutive PSNs as a wrapped uint32 array."""
        start = self._psn
        self._psn = (start + count) % PSN_MODULUS
        return psn_run(start, count)

    def craft_fetch_add(self, address: int, amount: int, psn: Optional[int] = None) -> bytes:
        """One FETCH_ADD frame (the per-operation path)."""
        if psn is None:
            psn = self._next_psn()
        return self._add_plan.stamp(address, amount, psn)

    def _encode_fetch_add_batch(
        self, addresses: np.ndarray, amounts: np.ndarray
    ) -> FrameBatch:
        """Encode a FETCH_ADD batch as one pooled frame matrix.

        Row ``i`` is what :meth:`craft_fetch_add` stamps on the same
        operands, from the same plan.
        """
        count = len(addresses)
        return TemplateEncoder(self._add_plan.row).stamp(
            self._pool,
            np.full(count, self.endpoint_id, dtype=np.int64),
            {
                "atomic_eth.virtual_address": np.asarray(addresses, np.uint64),
                "atomic_eth.swap_add": np.asarray(amounts, np.uint64),
                "bth.psn": self._psn_sequence(count),
            },
        )


class KeyIncrementTranslator(PrimitiveTranslator):
    """Key-Increment: per-key counters via FETCH_ADD into a count-min bank.

    Each key hashes to one cell per row of the collector's counter bank;
    counting a key lowers to ``rows`` FETCH_ADDs.  This is the switch half
    of :class:`~repro.collector.counters.CounterStore`, promoted out of
    the store so the same lowering can target any fabric endpoint.

    Parameters
    ----------
    base_address / cells_per_row / rows / family:
        Geometry and hash family of the target counter bank; must match
        the collector side exactly (the store's constructor wires this).
    """

    kind = "key_increment"

    def __init__(
        self,
        fabric: Fabric,
        endpoint_id: int,
        qp_number: int,
        *,
        base_address: int,
        rkey: int,
        cells_per_row: int,
        rows: int,
        family: HashFamily,
    ) -> None:
        super().__init__(fabric, endpoint_id, qp_number, rkey=rkey)
        self.base_address = base_address
        #: The target bank's count-min addressing.
        self.addressing = CountMinAddressing(family, rows, cells_per_row)
        #: Keys incremented (an increment spans ``rows`` frames).
        self.c_increments = self._registry.counter(
            "increments_total", labels=self._labels
        )

    def craft_add_frames(self, key: Key, amount: int = 1) -> List[bytes]:
        """The FETCH_ADD frames a switch emits to count ``key``.

        One frame per count-min row; zero-amount adds are a no-op and
        craft nothing (no frames, no PSNs burned).
        """
        check_amount(amount)
        if amount == 0:
            return []
        return [
            self.craft_fetch_add(self.base_address + cell * 8, amount)
            for cell in self.addressing.key_cells(key)
        ]

    def increment(self, key: Key, amount: int = 1) -> int:
        """Count ``key`` once through the scalar frame path.

        Returns the number of frames offered to the fabric (0 for a
        zero-amount no-op, ``rows`` otherwise).  Kept beside
        :meth:`increment_many`: a batch of one costs ~5x a frame (DESIGN.md, "Batch of one").
        """
        frames = self.craft_add_frames(key, amount)
        if not frames:
            return 0
        for frame in frames:
            self.fabric.send(self.endpoint_id, frame)
        self.c_increments.inc()
        return len(frames)

    def increment_many(self, items: Iterable[Tuple[Key, int]]) -> int:
        """Batched counting: one fold per key, then :meth:`increment_folded`."""
        items = list(items)
        return self.increment_folded(
            fold_keys([key for key, _amount in items]),
            [amount for _key, amount in items],
        )

    def increment_folded(self, lanes: np.ndarray, amounts: Sequence[int]) -> int:
        """Count pre-folded keys through the columnar FETCH_ADD path.

        Derives all ``lanes x rows`` cell addresses in one vectorised pass
        (bit-identical to the scalar addressing), encodes one pooled frame
        batch and offers it through ``send_batch`` (then flushes).  Frame
        emission order matches the scalar path: all rows of item 0, then
        item 1, ...  Zero-amount items are skipped.  Returns the number of
        frames offered.
        """
        started = self._t_batch.start()
        for amount in amounts:
            check_amount(amount)
        addends = np.asarray(amounts, dtype=np.uint64)
        counted = np.flatnonzero(addends)
        if not len(counted):
            return 0
        rows = self.addressing.rows
        cells = self.addressing.cells_array(lanes[counted])
        addresses = np.uint64(self.base_address) + cells.reshape(-1) * np.uint64(8)
        batch = self._encode_fetch_add_batch(
            addresses, np.repeat(addends[counted], rows)
        )
        offered = batch.count
        self.fabric.send_batch(batch)
        self.fabric.flush()
        self.c_increments.inc(len(counted))
        self._t_batch.stop(started)
        return offered

    def cell_reader(self, read_run: ReadRun) -> CellReader:
        """What :meth:`CountMinAddressing.estimates` reads this bank through.

        ``read_run(addresses, length)`` -- ``OneSidedReader.read_run``, a
        retrying wrapper of it, or a local region read -- returns one
        big-endian word per address, ``None`` for a lost READ.
        """
        base = self.base_address

        def read_cells(cells: List[int]) -> List[Optional[int]]:
            payloads, answered = read_run([base + cell * 8 for cell in cells], 8)
            words = payloads.view(">u8").ravel().tolist()
            return [word if ok else None for word, ok in zip(words, answered.tolist())]

        return read_cells


class SketchMergeTranslator(PrimitiveTranslator):
    """Sketch-Merge: fold a switch-resident sketch into collector memory.

    Lowers every non-zero cell of a count-min matrix to one FETCH_ADD
    into the corresponding cell of the collector bank.  Because the adds
    are atomic and commutative, merges from many switches -- and live
    Key-Increment traffic -- interleave without coordination: this is the
    paper's "network-wide aggregation of sketches" on the wire.

    Parameters
    ----------
    base_address:
        Base virtual address of the target bank; cell ``i`` of the
        flattened ``rows x cells`` matrix lands at ``base + 8 * i``.
    """

    kind = "sketch_merge"

    def __init__(
        self,
        fabric: Fabric,
        endpoint_id: int,
        qp_number: int,
        *,
        base_address: int,
        rkey: int,
    ) -> None:
        super().__init__(fabric, endpoint_id, qp_number, rkey=rkey)
        self.base_address = base_address
        #: Whole-sketch merges performed.
        self.c_merges = self._registry.counter(
            "merges_total", labels=self._labels
        )
        #: Non-zero cells carried across all merges.
        self.c_merge_cells = self._registry.counter(
            "merge_cells_total", labels=self._labels
        )

    def _nonzero_cells(self, cells) -> Tuple[np.ndarray, np.ndarray]:
        """Flatten a cell matrix to (addresses, addends) of non-zero cells."""
        flat = np.asarray(cells, dtype=np.uint64).reshape(-1)
        indexes = np.flatnonzero(flat)
        addresses = (
            np.uint64(self.base_address)
            + indexes.astype(np.uint64) * np.uint64(8)
        )
        return addresses, flat[indexes]

    def merge(self, cells) -> int:
        """Merge a cell matrix through the columnar FETCH_ADD path.

        ``cells`` is any array-like of uint64 addends (typically a
        ``rows x cells`` count-min matrix); zero cells cost nothing on
        the wire.  Returns the number of frames offered.
        """
        started = self._t_batch.start()
        addresses, addends = self._nonzero_cells(cells)
        offered = len(addresses)
        if offered:
            batch = self._encode_fetch_add_batch(addresses, addends)
            self.fabric.send_batch(batch)
            self.fabric.flush()
        self.c_merges.inc()
        self.c_merge_cells.inc(offered)
        self._t_batch.stop(started)
        return offered


class AppendTranslator(PrimitiveTranslator):
    """Append: multi-writer ring-buffer inserts, two verbs per batch.

    A batch of ``n`` records lowers to (1) one FETCH_ADD on the ring's
    shared tail pointer, whose ATOMIC ACKNOWLEDGE carries the original
    tail -- reserving slots ``[tail, tail + n)`` for this writer alone --
    and (2) ``n`` RDMA WRITEs into the reserved slots modulo the ring
    capacity.  Concurrent writers interleave safely because reservation
    is a single atomic; older records are overwritten once the absolute
    index laps the capacity (overwrite-oldest semantics).

    The reservation is the one round-trip in the DTA primitive set: a
    lost FETCH_ADD gets no response and is retried with a fresh PSN
    (safe -- the response leg is lossless in this model, so no response
    means the add never executed).

    Parameters
    ----------
    tail_address / data_address:
        Virtual addresses of the 8-byte tail pointer and of ring slot 0.
    capacity / record_bytes:
        Ring geometry; records shorter than ``record_bytes`` are
        zero-padded.
    demux:
        The :class:`ResponseDemux` shared by every requester polling this
        collector endpoint.
    writer_id:
        Diagnostic identity of this writer (one translator per writer).
    max_retries:
        Reservation retries before :class:`AppendReserveError`.
    """

    kind = "append"

    def __init__(
        self,
        fabric: Fabric,
        endpoint_id: int,
        qp_number: int,
        *,
        tail_address: int,
        data_address: int,
        capacity: int,
        record_bytes: int,
        rkey: int,
        demux: ResponseDemux,
        writer_id: int = 0,
        max_retries: int = 16,
    ) -> None:
        super().__init__(fabric, endpoint_id, qp_number, rkey=rkey)
        self.tail_address = tail_address
        self.data_address = data_address
        self.capacity = capacity
        self.record_bytes = record_bytes
        self.demux = demux
        self.writer_id = writer_id
        self.max_retries = max_retries
        #: Every record WRITE: slot address, PSN and the record vary.
        self._record_plan = FramePlan(
            RoceV2Packet(
                bth=Bth(opcode=int(Opcode.RC_RDMA_WRITE_ONLY), dest_qp=qp_number),
                reth=Reth(rkey=rkey, dma_length=record_bytes),
                payload=bytes(record_bytes),
            ).pack(),
            "reth.virtual_address", "bth.psn",
        )
        #: Records appended (reservation succeeded and WRITEs offered).
        self.c_appends = self._registry.counter(
            "appends_total", labels=self._labels
        )
        #: Reserved slots that lapped the ring and overwrote older records.
        self.c_overwrites = self._registry.counter(
            "ring_overwrites_total", labels=self._labels
        )
        #: Tail reservations re-sent after a lost FETCH_ADD.
        self.c_reserve_retries = self._registry.counter(
            "append_reserve_retries", labels=self._labels
        )

    def _pad(self, value: bytes) -> bytes:
        """Zero-pad ``value`` to the fixed record width (validating size)."""
        if len(value) > self.record_bytes:
            raise ValueError(
                f"record of {len(value)} bytes exceeds record_bytes="
                f"{self.record_bytes}"
            )
        return value.ljust(self.record_bytes, b"\x00")

    def craft_record_write(self, slot: int, value: bytes) -> bytes:
        """One WRITE frame landing ``value`` in ring ``slot``."""
        return self._record_plan.stamp(
            self.data_address + slot * self.record_bytes,
            self._next_psn(),
            payload=self._pad(value),
        )

    def _account_overwrites(self, start: int, count: int) -> None:
        """Count reserved slots whose absolute index laps the capacity.

        Overwrites are also journalled (one event per lapping batch, not
        per record) -- telemetry silently falling off the ring is exactly
        what a postmortem needs to know about.
        """
        overwritten = (start + count) - max(start, self.capacity)
        if overwritten > 0:
            self.c_overwrites.inc(overwritten)
            obs.get_journal().record(
                "ring_overwrite",
                f"writer {self.writer_id} lapped {overwritten} record(s)",
                writer=self.writer_id,
                overwritten=overwritten,
                tail=start + count,
            )

    def _reserve(self, count: int) -> int:
        """FETCH_ADD the shared tail by ``count``; return the old tail.

        Sends the reservation, polls the shared demux for this writer's
        ATOMIC ACKNOWLEDGE (matched by PSN), and retries with a fresh PSN
        when the request was lost in the fabric.  Stale responses --
        e.g. from an earlier duplicated request -- are discarded by the
        PSN match.
        """
        tracer = self._tracer
        trace_id = tracer.active_trace_id if tracer.enabled else None
        reserve_parent = 0
        if trace_id is not None:
            reserve_parent = tracer.span(
                trace_id,
                "append.reserve",
                f"writer={self.writer_id} count={count}",
            )
        for attempt in range(self.max_retries + 1):
            if attempt:
                self.c_reserve_retries.inc()
                if trace_id is not None:
                    # A lost reservation surfaces causally: the retry is
                    # a child of the reserve span, and its non-ok status
                    # tail-retains the whole trace.
                    tracer.span(
                        trace_id,
                        "append.reserve.retry",
                        f"attempt={attempt}",
                        status="retry",
                        parent=reserve_parent,
                    )
            psn = self._next_psn()
            frame = self.craft_fetch_add(self.tail_address, count, psn=psn)
            if trace_id is not None:
                tracer.bind_frame(frame, trace_id, parent=reserve_parent)
            self.fabric.send(self.endpoint_id, frame)
            self.demux.poll(self.fabric, self.endpoint_id)
            for response in self.demux.take(self.qp_number):
                if (
                    response.opcode == Opcode.RC_ATOMIC_ACKNOWLEDGE
                    and response.psn == psn
                    and len(response.payload) >= 8
                ):
                    return int.from_bytes(response.payload[:8], "big")
        if trace_id is not None:
            tracer.span(
                trace_id,
                "append.reserve.error",
                f"attempts={self.max_retries + 1}",
                status="error",
                parent=reserve_parent,
            )
        raise AppendReserveError(
            f"writer {self.writer_id}: tail reservation got no response "
            f"after {self.max_retries + 1} attempts"
        )

    def append(self, value: bytes) -> int:
        """Append one record through the scalar frame path.

        Returns the record's absolute ring index (monotonic across the
        ring's life; ``index % capacity`` is its slot).  Kept beside
        :meth:`append_many`: a batch of one costs ~4x a frame (DESIGN.md, "Batch of one").
        """
        padded = self._pad(value)
        tracer = self._tracer
        with tracer.joined("append", key=f"writer={self.writer_id}") as trace_id:
            root_sid = tracer.span(
                trace_id, "primitive.append", f"writer={self.writer_id} count=1"
            )
            start = self._reserve(1)
            self._account_overwrites(start, 1)
            frame = self.craft_record_write(start % self.capacity, padded)
            # Parent explicitly on the operation root: the WRITE is a
            # sibling of the reservation chain, not its child.
            tracer.bind_frame(frame, trace_id, parent=root_sid)
            self.fabric.send(self.endpoint_id, frame)
            self.fabric.flush()
        self.c_appends.inc()
        return start

    def append_many(self, values: Iterable[bytes]) -> Optional[int]:
        """Append a batch of records: one reservation, columnar WRITEs.

        Reserves ``len(values)`` slots with a single tail FETCH_ADD, then
        encodes all record WRITEs as one pooled frame matrix (row ``i``
        what :meth:`craft_record_write` stamps) offered through
        ``send_batch``.  Returns
        the first record's absolute ring index, or ``None`` for an empty
        batch.
        """
        padded = [self._pad(value) for value in values]
        count = len(padded)
        if count == 0:
            return None
        started = self._t_batch.start()
        tracer = self._tracer
        # The trace is ambient for the reservation and any journal events
        # (ring overwrites) the batch triggers.
        with tracer.joined("append", key=f"writer={self.writer_id}") as trace_id:
            root_sid = tracer.span(
                trace_id, "primitive.append", f"writer={self.writer_id} count={count}"
            )
            start = self._reserve(count)
            self._account_overwrites(start, count)
            slots = (
                np.uint64(start) + np.arange(count, dtype=np.uint64)
            ) % np.uint64(self.capacity)
            addresses = (
                np.uint64(self.data_address) + slots * np.uint64(self.record_bytes)
            )
            frame_batch = TemplateEncoder(self._record_plan.row).stamp(
                self._pool,
                np.full(count, self.endpoint_id, dtype=np.int64),
                {"reth.virtual_address": addresses, "bth.psn": self._psn_sequence(count)},
                payload=np.frombuffer(b"".join(padded), dtype=np.uint8).reshape(
                    count, self.record_bytes
                ),
            )
            # One batch binding covers all the record WRITEs; parented on
            # the operation root, a sibling of the reservation chain.
            tracer.bind_batch(frame_batch, trace_id, parent=root_sid)
            self.fabric.send_batch(frame_batch)
            self.fabric.flush()
        self.c_appends.inc(count)
        self._t_batch.stop(started)
        return start
