"""A software RDMA NIC executing one-sided verbs against registered memory.

This is the component that makes collection "zero-CPU": switch-crafted
RoCEv2 frames arrive, and the NIC alone validates and applies them to the
registered memory region.  Anything malformed -- bad iCRC, unknown QP, bad
rkey, out-of-bounds address, stale PSN -- is dropped silently and counted,
never surfacing to a host CPU.  Queries later read the region directly.

The model is intentionally strict about the wire format: it parses the exact
bytes the switch model emits, so an encoding bug on either side fails loudly
in the integration tests rather than being papered over by passing Python
objects around.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from repro import obs
from repro.mem.region import MemoryRegion, RegionAccessError
from repro.obs.metrics import DEPTH_BUCKETS, CounterView
from repro.rdma.frames import (
    ATOMIC_FRAME_BYTES,
    FrameBatch,
    ICRC_BYTES,
    IP_OFF,
    OPCODE_OFF,
    OVERHEAD_BYTES,
    PAYLOAD_OFF,
    READ_REQUEST_BYTES,
    RESPONSE_PAYLOAD_OFF,
    TEMPLATE_MEMO_SIZE,
    FramePlan,
    TemplateEncoder,
    icrc_ok,
    read_field,
)
from repro.rdma.layout import columns, picker, span
from repro.rdma.packets import (
    PLAN_FIELDS,
    Aeth,
    Bth,
    EthernetHeader,
    Ipv4Header,
    Opcode,
    PacketDecodeError,
    RoceV2Packet,
    UdpHeader,
    _ipv4_str,
    _mac_str,
    decode_frame,
    header_plan,
    opcode_has_atomic_eth,
)
from repro.rdma.qp import PSN_MODULUS, QueuePair, psn_run

#: Request fields a READ response or an atomic ACK reflects: what a
#: response plan is keyed on, besides its opcode, length and peer QP.
_REFLECTED_FIELDS = ("eth.src_mac", "ipv4.src_ip", "udp.src_port")
_REFLECTED = picker(*_REFLECTED_FIELDS)
#: Per vector branch, the columns every row of a batch must share with
#: row 0 for row 0's header plan, rkey and (RETH) length to stand for all
#: of them; a READ batch also shares what its one response plan reflects.
_UNIFORM_COLUMNS = {
    Opcode.RC_RDMA_WRITE_ONLY: np.array(columns(*PLAN_FIELDS, "reth.rkey", "reth.dma_length")),
    Opcode.RC_FETCH_ADD: np.array(columns(*PLAN_FIELDS, "atomic_eth.rkey")),
    Opcode.RC_RDMA_READ_REQUEST: np.array(
        columns(*PLAN_FIELDS, "reth.rkey", "reth.dma_length", *_REFLECTED_FIELDS)
    ),
}
#: The most bytes one READ RESPONSE ONLY carries (its IPv4 total length is
#: 16 bits); a longer READ needs a multi-packet response, not implemented.
_MAX_READ_BYTES = 0xFFFF + IP_OFF - RESPONSE_PAYLOAD_OFF - ICRC_BYTES
#: The request's PSN bytes, which its response carries at the same columns.
_PSN = slice(*span("bth.psn"))
_WRITE_OPCODES = frozenset({Opcode.RC_RDMA_WRITE_ONLY, Opcode.UC_RDMA_WRITE_ONLY})


class NicCounters(CounterView):
    """Hardware-style drop/accept counters exposed for diagnostics.

    A thin view over per-NIC counters in the process metrics registry:
    the attribute names of the pre-registry dataclass stay readable (the
    impairment reconciliation tests depend on them), while exposition and
    fleet-wide totals come from the registry series
    (``nic_frames_received``, ``nic_dropped_<reason>``, ...).
    """

    KIND = "RdmaNic"
    FIELDS = (
        ("frames_received", "c_received", "nic_frames_received",
         "Frames handed to the NIC by the network/fabric."),
        ("writes_executed", "c_writes", "nic_writes_executed",
         "RDMA WRITEs applied to the region."),
        ("atomics_executed", "c_atomics", "nic_atomics_executed",
         "FETCH_ADD / CMP_SWAP atomics applied to the region."),
        ("reads_executed", "c_reads", "nic_reads_executed",
         "READ requests served from the region."),
        ("responses_emitted", "c_responses", "nic_responses_emitted",
         "READ responses crafted onto the TX queue."),
        ("dropped_decode", "c_dropped_decode", "nic_dropped_decode",
         "Frames dropped: undecodable / failed iCRC."),
        ("dropped_unknown_qp", "c_dropped_unknown_qp", "nic_dropped_unknown_qp",
         "Frames dropped: no such queue pair."),
        ("dropped_psn", "c_dropped_psn", "nic_dropped_psn",
         "Frames dropped: PSN outside the acceptance window."),
        ("dropped_access", "c_dropped_access", "nic_dropped_access",
         "Frames dropped: rkey/bounds violation (RegionAccessError)."),
        ("dropped_opcode", "c_dropped_opcode", "nic_dropped_opcode",
         "Frames dropped: an opcode, or a READ longer than one response, "
         "the responder does not implement."),
    )

    @property
    def frames_dropped(self) -> int:
        """Sum of all drop counters."""
        return (
            self.dropped_decode
            + self.dropped_unknown_qp
            + self.dropped_psn
            + self.dropped_access
            + self.dropped_opcode
        )


class RdmaNic:
    """An RNIC bound to one registered memory region.

    Parameters
    ----------
    region:
        The registered memory region remote writes land in.
    mac / ip:
        The NIC's L2/L3 addresses, advertised to switches via the control
        plane's collector lookup table.
    """

    def __init__(
        self,
        region: MemoryRegion,
        mac: str = "02:00:00:00:00:01",
        ip: str = "10.0.0.1",
    ) -> None:
        self.region = region
        self.mac = mac
        self.ip = ip
        registry = obs.get_registry()
        self._tracer = obs.get_tracer()
        self.counters = NicCounters(registry)
        self._h_ingest_batch = registry.histogram(
            "nic_ingest_batch_frames",
            DEPTH_BUCKETS,
            help="frames per batched ingest call",
        )
        self._t_ingest = registry.stage("nic.ingest")
        self._queue_pairs: Dict[int, QueuePair] = {}
        #: Outbound frames (READ responses, ACKs) awaiting transmission;
        #: the network model drains this with :meth:`transmit`.
        #: A scalar READ or atomic leaves one ``bytes`` frame, a READ batch
        #: one :class:`~repro.rdma.frames.FrameBatch` whose rows are the
        #: response frames, both in execution order.
        self.tx_queue: List[Union[bytes, FrameBatch]] = []
        #: Response plans by (opcode, reflected fields, length, peer QP):
        #: a response's shape depends on its request, so it is planned on
        #: first sight; a full memo is cleared.
        self._response_plans: Dict[tuple, FramePlan] = {}
        #: Vector branch shapes by (width, row 0's uniform bytes), bounded
        #: like the response plans.
        self._shapes: Dict[tuple, object] = {}

    def __repr__(self) -> str:
        return f"RdmaNic(ip={self.ip!r}, region={self.region!r})"

    # ------------------------------------------------------------------
    # Control-plane operations
    # ------------------------------------------------------------------

    def create_queue_pair(self, qp: QueuePair) -> QueuePair:
        """Register a responder QP (control-plane bring-up)."""
        if qp.qp_number in self._queue_pairs:
            raise ValueError(f"QP {qp.qp_number} already exists")
        self._queue_pairs[qp.qp_number] = qp
        return qp

    def queue_pair(self, qp_number: int) -> Optional[QueuePair]:
        """Look up a responder QP by number (None if absent)."""
        return self._queue_pairs.get(qp_number)

    # ------------------------------------------------------------------
    # Data-plane: frame ingestion
    # ------------------------------------------------------------------

    def receive_frame(self, frame: bytes) -> bool:
        """Ingest one wire frame; returns whether it was executed.

        This is the *entire* collection fast path: one pass decodes the
        frame and checks its iCRC (:func:`~repro.rdma.packets.decode_frame`),
        then QP lookup, PSN acceptance and the DMA its fields describe.
        """
        self.counters.c_received.inc()
        timer = self._t_ingest
        profiled = timer.profiler is not None
        if profiled:
            started = timer.start()
        decoded = decode_frame(frame)
        if decoded is None:
            self.counters.c_dropped_decode.inc()
            executed, detail, status = False, "dropped:decode", "drop"
        else:
            executed = self._execute(frame, *decoded)
            detail, status = "executed" if executed else "dropped", "ok"
        if self._tracer.enabled:
            self._tracer.frame_span(frame, "nic.ingest", detail, status=status)
        if profiled:
            timer.stop(started)
        return executed

    def _execute(self, frame: bytes, opcode: int, dest_qp: int, psn: int, fields, payload) -> bool:
        """Apply a :func:`~repro.rdma.packets.decode_frame` result: QP, PSN, the verb."""
        counters = self.counters
        qp = self._queue_pairs.get(dest_qp)
        if qp is None:
            counters.c_dropped_unknown_qp.inc()
            return False
        if not qp.accept(psn):
            counters.c_dropped_psn.inc()
            return False
        region = self.region
        try:
            if opcode in _WRITE_OPCODES:
                _psn, address, rkey, length = fields
                if length != len(payload):
                    counters.c_dropped_decode.inc()
                    return False
                region.dma_write(address, payload, rkey=rkey)
                counters.c_writes.inc()
                return True
            if opcode == Opcode.RC_RDMA_READ_REQUEST:
                _psn, address, rkey, length = fields
                if length > _MAX_READ_BYTES:  # refused before the DMA
                    counters.c_dropped_opcode.inc()
                    return False
                data = region.dma_read(address, length, rkey=rkey)
                counters.c_reads.inc()
                self._enqueue_response(frame, psn, qp, Opcode.RC_RDMA_READ_RESPONSE_ONLY, data)
                return True
            if opcode_has_atomic_eth(opcode):
                _psn, address, rkey, swap_add, compare = fields
                if opcode == Opcode.RC_FETCH_ADD:
                    original = region.dma_fetch_add(address, swap_add, rkey=rkey)
                else:
                    original = region.dma_compare_swap(address, compare, swap_add, rkey=rkey)
                counters.c_atomics.inc()
                if qp.respond_atomics:
                    ack = original.to_bytes(8, "big")
                    self._enqueue_response(frame, psn, qp, Opcode.RC_ATOMIC_ACKNOWLEDGE, ack)
                return True
        except RegionAccessError:
            counters.c_dropped_access.inc()
            return False
        counters.c_dropped_opcode.inc()
        return False

    def ingest_many(self, frames: Iterable[bytes]) -> int:
        """Looped :meth:`receive_frame`; kept only as a `perf/` trace boundary."""
        return sum(self.receive_frame(frame) for frame in frames)

    def _batch_branch(self, frames: np.ndarray):
        """The vector branch that can express ``frames`` exactly, or None.

        Every row agrees with row 0 on its opcode's :data:`_UNIFORM_COLUMNS`,
        so row 0's header plan, QP, rkey and length stand for all: the WRITE
        the DART switch emits, the 86-byte FETCH_ADD of the primitive
        translators (unless the QP wants per-atomic ACKs), or the READ
        requests of one requester.  Anything else -- truncated frames, mixed
        opcodes or QPs, foreign traffic -- is for the scalar reference path
        and its full per-frame drop taxonomy.  What row 0's uniform bytes
        fix is derived on their first batch and memoised.
        """
        width = frames.shape[1]
        if width < OVERHEAD_BYTES:
            return None
        opcode = int(frames[0, OPCODE_OFF])
        uniform = _UNIFORM_COLUMNS.get(opcode)
        if uniform is None:
            return None
        head = frames[0, uniform]
        if not (frames[:, uniform] == head).all():
            return None
        key = (width, head.tobytes())
        shape = self._shapes.get(key)
        if shape is None:  # first sight of these uniform bytes, which fix it all
            first = frames[0].tobytes()
            try:
                opcode, qp_number, end, read, *_ = header_plan(first)
            except PacketDecodeError:  # not memoised, as header_plan does not
                return None
            if len(self._shapes) >= TEMPLATE_MEMO_SIZE:
                self._shapes.clear()
            # (QP, rkey, RETH length or an addend no branch reads, reflected
            # fields), or () when trailing bytes are the scalar path's to judge.
            shape = self._shapes[key] = end == width and (
                qp_number, *read(first, _PSN.start)[2:4], _REFLECTED.unpack_from(first)
            ) or ()
        if not shape:
            return None
        qp_number, rkey, operand, reflected = shape
        if opcode == Opcode.RC_RDMA_WRITE_ONLY:
            if operand == width - OVERHEAD_BYTES:
                return lambda batch: self._ingest_write_batch(batch, qp_number, rkey)
        elif opcode == Opcode.RC_FETCH_ADD:
            qp = self._queue_pairs.get(qp_number)
            # Response crafting is per frame: ACK-wanting QPs take the scalar path.
            if width == ATOMIC_FRAME_BYTES and not (qp is not None and qp.respond_atomics):
                return lambda batch: self._ingest_fetch_add_batch(batch, qp_number, rkey)
        elif width == READ_REQUEST_BYTES and operand <= _MAX_READ_BYTES:
            return lambda batch: self._ingest_read_batch(
                batch, qp_number, rkey, operand, reflected
            )
        return None

    def ingest_batch(self, batch: FrameBatch) -> int:
        """Columnar ingest: validate and execute a whole frame batch.

        The zero-copy fast path behind ``Fabric.send_batch``: iCRC, QP,
        PSN and access validation run as vector operations over the frame
        matrix (:meth:`_validate_batch`), and all surviving operations
        execute against the region in one columnar call -- a scatter
        (WRITE), an accumulate (FETCH_ADD) or a gather whose rows leave as
        one response matrix on :attr:`tx_queue` (READ).  Counters, drops,
        the memory image and the response bytes are identical to feeding
        each row through :meth:`receive_frame` in order; batches the
        vector paths cannot express exactly (mixed opcodes or QPs,
        malformed rows, ACK-responding QPs) fall back to it.  A bound
        batch records one aggregate span; an unbound one records and pays
        nothing.
        """
        frames = batch.frames
        count = len(frames)
        if count == 0:
            return 0
        branch = self._batch_branch(frames)
        if branch is None:
            # Reference path: the full per-frame drop taxonomy.
            return sum(self.receive_frame(row.tobytes()) for row in frames)
        started = self._t_ingest.start()
        executed = branch(batch)
        self._t_ingest.stop(started)
        self._h_ingest_batch.observe(count)
        tracer = self._tracer
        if tracer.enabled and batch.trace_ctx is not None:
            tracer.batch_span(
                batch,
                "nic.ingest",
                f"rows={count} executed={executed}",
                status="ok" if executed == count else "drop",
            )
        return executed

    def _validate_batch(
        self, frames: np.ndarray, qp_number: int, rkey: int, span: int, alignment: int = 1
    ):
        """The validation every vector branch shares; returns what landed.

        In the scalar path's order and with its counters: iCRC, the one
        queue pair ``qp_number`` and its PSN acceptance in arrival order,
        then ``rkey``, bounds of ``[VA, VA + span)`` and ``alignment``
        (RETH and AtomicETH open with the same virtual_address and rkey
        fields).  Returns the row indexes that passed everything, in
        arrival order, their region offsets, every row's PSN and the queue
        pair (None if unknown).
        """
        count = len(frames)
        counters = self.counters
        counters.c_received.inc(count)
        candidates = np.flatnonzero(icrc_ok(frames))
        if len(candidates) < count:
            counters.c_dropped_decode.inc(count - len(candidates))

        psns = read_field(frames, "bth.psn")
        qp = self._queue_pairs.get(qp_number)
        if qp is None:
            counters.c_dropped_unknown_qp.inc(len(candidates))
            landed = candidates[:0]
        else:
            accepted = qp.accept_array(psns[candidates])
            landed = candidates[accepted]
            if len(landed) < len(candidates):
                counters.c_dropped_psn.inc(len(candidates) - len(landed))

        region = self.region
        addresses = read_field(frames, "reth.virtual_address")
        if len(landed) < count:  # every row landed: no copy
            addresses = addresses[landed]
        base = np.uint64(region.base_address)
        # Offsets wrap for VAs below the base; the first term rejects
        # those rows, and comparing offsets (not VA + span) keeps a VA
        # near 2**64 from wrapping back inside the region.
        offsets = addresses - base
        room = region.size - span
        access_ok = (addresses >= base) & (offsets <= np.uint64(max(room, 0)))
        if alignment > 1:
            access_ok &= addresses % np.uint64(alignment) == 0
        if room < 0 or rkey != region.rkey:  # nothing fits, or nothing may
            access_ok[:] = False
        denied = len(landed) - np.count_nonzero(access_ok)
        if denied:
            counters.c_dropped_access.inc(denied)
            landed = landed[access_ok]
            offsets = offsets[access_ok]
        return landed, offsets.astype(np.int64), psns, qp

    def _ingest_write_batch(self, batch: FrameBatch, qp_number: int, rkey: int) -> int:
        """The uniform-WRITE branch: one last-wins columnar scatter."""
        frames = batch.frames
        payload_bytes = frames.shape[1] - OVERHEAD_BYTES
        landed, offsets, _psns, _qp = self._validate_batch(frames, qp_number, rkey, payload_bytes)
        if len(landed):
            payloads = frames[:, PAYLOAD_OFF : PAYLOAD_OFF + payload_bytes]
            self.region.write_offset_columnar(
                offsets, payloads if len(landed) == len(frames) else payloads[landed]
            )
            self.counters.c_writes.inc(len(landed))
        return len(landed)

    def _ingest_fetch_add_batch(self, batch: FrameBatch, qp_number: int, rkey: int) -> int:
        """The uniform-FETCH_ADD branch: one columnar accumulate.

        Adds commute, so :meth:`~repro.mem.region.MemoryRegion.dma_fetch_add_many`
        is byte-identical to the scalar path even with duplicate target
        cells in one batch.
        """
        frames = batch.frames
        landed, offsets, _psns, _qp = self._validate_batch(frames, qp_number, rkey, 8, alignment=8)
        if len(landed):
            self.region.dma_fetch_add_many(
                offsets + self.region.base_address,
                read_field(frames, "atomic_eth.swap_add")[landed],
            )
            self.counters.c_atomics.inc(len(landed))
        return len(landed)

    def _ingest_read_batch(
        self, batch: FrameBatch, qp_number: int, rkey: int, length: int, reflected: tuple
    ) -> int:
        """The uniform-READ branch: one gather, one response matrix.

        ``length`` and ``reflected`` are the batch's one ``reth.dma_length``
        and :data:`_REFLECTED` fields, as :meth:`_batch_branch` read them.
        The survivors' bytes leave as one unpooled
        :class:`~repro.rdma.frames.FrameBatch` on :attr:`tx_queue`, stamped
        from :meth:`_response_plan`'s row with each request's PSN bytes
        copied over, MSN and payload patched: row for row what
        :meth:`_enqueue_response` stamps.
        """
        frames = batch.frames
        landed, offsets, _psns, qp = self._validate_batch(frames, qp_number, rkey, length)
        count = len(landed)
        if count:
            plan = self._response_plan(
                Opcode.RC_RDMA_READ_RESPONSE_ONLY, reflected, length, qp.effective_peer_qp
            )
            everyone = count == len(frames)  # no row copies
            self.tx_queue.append(
                TemplateEncoder(plan.row).stamp(
                    None,
                    batch.endpoint_ids if everyone else batch.endpoint_ids[landed],
                    {
                        "bth.psn": frames[:, _PSN] if everyone else frames[landed, _PSN],
                        "aeth.msn": psn_run(qp.msn + 1, count),
                    },
                    payload=self.region.read_offset_columnar(offsets, length),
                )
            )
            qp.msn = (qp.msn + count) % PSN_MODULUS
            self.counters.c_reads.inc(count)
            self.counters.c_responses.inc(count)
        return count

    # ------------------------------------------------------------------
    # Response path (READ responses, atomic ACKs; still zero host CPU)
    # ------------------------------------------------------------------

    def _response_plan(
        self, opcode: int, reflected: tuple, length: int, peer_qp: int
    ) -> FramePlan:
        """The READ RESPONSE or ATOMIC ACKNOWLEDGE of ``length`` payload bytes
        to a request whose :data:`_REFLECTED` fields hold ``reflected``, PSN
        and MSN varying: addressing is reflected from the request, the NIC
        knows nothing else."""
        key = (opcode, reflected, length, peer_qp)
        plan = self._response_plans.get(key)
        if plan is None:
            if len(self._response_plans) >= TEMPLATE_MEMO_SIZE:
                self._response_plans.clear()
            src_mac, src_ip, src_port = reflected
            plan = self._response_plans[key] = FramePlan(
                RoceV2Packet(
                    eth=EthernetHeader(dst_mac=_mac_str(src_mac), src_mac=self.mac),
                    ipv4=Ipv4Header(src_ip=self.ip, dst_ip=_ipv4_str(src_ip)),
                    udp=UdpHeader(src_port=src_port),
                    bth=Bth(opcode=int(opcode), dest_qp=peer_qp),
                    aeth=Aeth(),
                    payload=bytes(length),
                ).pack(),
                "bth.psn", "aeth.msn",
            )
        return plan

    def _enqueue_response(
        self, request: bytes, psn: int, qp: QueuePair, opcode: int, data: bytes
    ) -> None:
        """Queue the response ``opcode`` carrying ``data`` on :attr:`tx_queue`
        for the network model to deliver back to the requester of the frame
        ``request`` (PSN ``psn``): a READ's bytes, or an atomic's
        pre-operation value (8 bytes, big-endian) -- the half of the
        FETCH_ADD contract Append's tail reservation needs."""
        msn = qp.next_msn()
        plan = self._response_plan(
            opcode, _REFLECTED.unpack_from(request), len(data), qp.effective_peer_qp
        )
        self.tx_queue.append(plan.stamp(psn, msn, payload=data))
        self.counters.c_responses.inc()

    def transmit(self) -> List[Union[bytes, FrameBatch]]:
        """Drain and return everything queued outbound, in execution order."""
        frames, self.tx_queue = self.tx_queue, []
        return frames
