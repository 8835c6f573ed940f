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
    TemplateEncoder,
    header_mask,
    icrc_ok,
    read_field,
    scalar_template,
    stamp_frame,
)
from repro.rdma.layout import BTH, columns, packer
from repro.rdma.packets import (
    Aeth,
    Bth,
    EthernetHeader,
    Ipv4Header,
    Opcode,
    PacketDecodeError,
    RoceV2Packet,
    UdpHeader,
    _ipv4_bytes,
    _ipv4_str,
    _mac_bytes,
    _mac_str,
    opcode_has_atomic_eth,
    opcode_has_reth,
)
from repro.rdma.qp import PSN_MODULUS, QueuePair, psn_run

#: Request fields a READ response reflects or depends on.  A READ batch
#: takes the vector branch only when every row agrees on all of them, so
#: one response template serves the whole batch.
_REFLECTED_FIELDS = (
    "eth.src_mac", "ipv4.src_ip", "udp.src_port", "bth.dest_qp", "reth.dma_length"
)
_READ_UNIFORM_COLUMNS = np.array(columns(*_REFLECTED_FIELDS))
#: Those fields' bytes, back to back: what a response template is keyed on.
_REFLECTED = packer(*_REFLECTED_FIELDS)
_QP_BYTES = BTH["dest_qp"].width


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
         "Frames dropped: opcode the responder does not implement."),
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

        This is the *entire* collection fast path: parse, validate, DMA.
        """
        self.counters.c_received.inc()
        timer = self._t_ingest
        profiled = timer.profiler is not None
        if profiled:
            started = timer.start()
        try:
            packet = RoceV2Packet.unpack(frame)
        except PacketDecodeError:
            self.counters.c_dropped_decode.inc()
            if self._tracer.enabled:
                self._tracer.frame_span(
                    frame, "nic.ingest", "dropped:decode", status="drop"
                )
            executed = False
        else:
            executed = self.receive_packet(packet)
            if self._tracer.enabled:
                self._tracer.frame_span(
                    frame, "nic.ingest", "executed" if executed else "dropped"
                )
        if profiled:
            timer.stop(started)
        return executed

    def ingest_many(self, frames: Iterable[bytes]) -> int:
        """Looped :meth:`receive_frame`; kept only as a `perf/` trace boundary."""
        return sum(self.receive_frame(frame) for frame in frames)

    def _batch_branch(self, frames: np.ndarray):
        """The vector branch that can express ``frames`` exactly, or None.

        Each branch takes one uniform shape (every row passing
        :func:`~repro.rdma.frames.header_mask` for one opcode): the WRITE
        the DART switch emits, the 86-byte FETCH_ADD of the primitive
        translators (unless a targeted QP wants per-atomic ACKs), or the
        READ requests of one requester.  Anything else -- truncated
        frames, mixed opcodes, foreign traffic -- is for the scalar
        reference path and its full per-frame drop taxonomy.
        """
        width = frames.shape[1]
        if width < OVERHEAD_BYTES:
            return None
        opcode = int(frames[0, OPCODE_OFF])
        if not header_mask(frames, opcode).all():
            return None
        if opcode == Opcode.RC_RDMA_WRITE_ONLY:
            if (read_field(frames, "reth.dma_length") == width - OVERHEAD_BYTES).all():
                return self._ingest_write_batch
        elif opcode == Opcode.RC_FETCH_ADD:
            if width == ATOMIC_FRAME_BYTES and not self._any_qp_responds_atomics(
                read_field(frames, "bth.dest_qp")
            ):
                return self._ingest_fetch_add_batch
        elif opcode == Opcode.RC_RDMA_READ_REQUEST and width == READ_REQUEST_BYTES:
            # One response template per batch needs every reflected
            # column uniform, and the response has to fit the 16-bit
            # IPv4 total length.
            reflected = frames[:, _READ_UNIFORM_COLUMNS]
            length = int(read_field(frames[:1], "reth.dma_length")[0])
            if (reflected == reflected[0]).all() and (
                RESPONSE_PAYLOAD_OFF + length + ICRC_BYTES - IP_OFF <= 0xFFFF
            ):
                return lambda batch: self._ingest_read_batch(batch, length)
        return None

    def _any_qp_responds_atomics(self, dest_qps: np.ndarray) -> bool:
        """Whether any targeted QP wants per-atomic ACK responses.

        Response crafting is inherently per-frame, so such batches take
        the scalar reference path.
        """
        queue_pairs = self._queue_pairs
        for qp_number in np.unique(dest_qps).tolist():
            qp = queue_pairs.get(int(qp_number))
            if qp is not None and qp.respond_atomics:
                return True
        return False

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
        vector paths cannot express exactly (mixed opcodes, malformed
        rows, ACK-responding QPs) fall back to it.  A bound batch records
        one aggregate span; an unbound one records and pays nothing.
        """
        frames = batch.frames
        count = len(frames)
        if count == 0:
            return 0
        branch = self._batch_branch(frames)
        if branch is None:
            # Reference path: the full per-frame drop taxonomy.
            receive_frame = self.receive_frame
            return sum(
                receive_frame(frames[index].tobytes()) for index in range(count)
            )
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
        self, frames: np.ndarray, span: int, alignment: int = 1
    ):
        """The validation every vector branch shares; returns what landed.

        In the scalar path's order and with its counters: iCRC, per-QP
        lookup and PSN acceptance in arrival order, then rkey, bounds of
        ``[VA, VA + span)`` and ``alignment`` (RETH and AtomicETH open
        with the same virtual_address and rkey fields).  Returns the row indexes
        that passed everything, in arrival order, their region offsets,
        every row's PSN and the queue pair the last QP group was looked up
        as (a READ batch has one group: its ``bth.dest_qp`` is uniform).
        """
        count = len(frames)
        counters = self.counters
        counters.c_received.inc(count)
        candidates = np.flatnonzero(icrc_ok(frames))
        if len(candidates) < count:
            counters.c_dropped_decode.inc(count - len(candidates))

        executed = np.zeros(count, dtype=bool)
        dest_qps = read_field(frames, "bth.dest_qp")[candidates]
        psns = read_field(frames, "bth.psn")
        qp = None
        # Per-QP acceptance, preserving arrival order within each QP --
        # the PSN state machine is sequential per queue pair.
        for qp_number in dict.fromkeys(dest_qps.tolist()):
            rows = candidates[dest_qps == qp_number]
            qp = self._queue_pairs.get(qp_number)
            if qp is None:
                counters.c_dropped_unknown_qp.inc(len(rows))
                continue
            accepted = qp.accept_array(psns[rows])
            rejected = len(rows) - int(accepted.sum())
            if rejected:
                counters.c_dropped_psn.inc(rejected)
            executed[rows[accepted]] = True

        landed = np.flatnonzero(executed)
        region = self.region
        addresses = read_field(frames, "reth.virtual_address")[landed]
        base = np.uint64(region.base_address)
        # Offsets wrap for VAs below the base; the first term rejects
        # those rows, and comparing offsets (not VA + span) keeps a VA
        # near 2**64 from wrapping back inside the region.
        offsets = addresses - base
        room = region.size - span
        access_ok = (
            (addresses >= base)
            & (offsets <= np.uint64(max(room, 0)))
            & (read_field(frames, "reth.rkey")[landed] == region.rkey)
        )
        if alignment > 1:
            access_ok &= addresses % np.uint64(alignment) == 0
        if room < 0:  # a span longer than the region fits nowhere
            access_ok[:] = False
        denied = len(landed) - int(access_ok.sum())
        if denied:
            counters.c_dropped_access.inc(denied)
            landed = landed[access_ok]
            offsets = offsets[access_ok]
        return landed, offsets.astype(np.int64), psns, qp

    def _ingest_write_batch(self, batch: FrameBatch) -> int:
        """The uniform-WRITE branch: one last-wins columnar scatter."""
        frames = batch.frames
        payload_bytes = frames.shape[1] - OVERHEAD_BYTES
        landed, offsets, _psns, _qp = self._validate_batch(frames, payload_bytes)
        if len(landed):
            self.region.write_offset_columnar(
                offsets, frames[landed, PAYLOAD_OFF : PAYLOAD_OFF + payload_bytes]
            )
            self.counters.c_writes.inc(len(landed))
        return len(landed)

    def _ingest_fetch_add_batch(self, batch: FrameBatch) -> int:
        """The uniform-FETCH_ADD branch: one columnar accumulate.

        Adds commute, so :meth:`~repro.mem.region.MemoryRegion.dma_fetch_add_many`
        is byte-identical to the scalar path even with duplicate target
        cells in one batch.
        """
        frames = batch.frames
        landed, offsets, _psns, _qp = self._validate_batch(frames, 8, alignment=8)
        if len(landed):
            self.region.dma_fetch_add_many(
                offsets + self.region.base_address,
                read_field(frames, "atomic_eth.swap_add")[landed],
            )
            self.counters.c_atomics.inc(len(landed))
        return len(landed)

    def _ingest_read_batch(self, batch: FrameBatch, length: int) -> int:
        """The uniform-READ branch: one gather, one response matrix.

        ``length`` is the batch's one ``reth.dma_length``, as
        :meth:`_batch_branch` read it.  The survivors' bytes leave as one
        unpooled :class:`~repro.rdma.frames.FrameBatch` on
        :attr:`tx_queue`, stamped from the first survivor's
        :meth:`_response_template` with PSN, MSN and payload patched: row
        for row what :meth:`_enqueue_response` stamps.
        """
        frames = batch.frames
        landed, offsets, psns, qp = self._validate_batch(frames, length)
        count = len(landed)
        if count:
            first = frames[landed[0]]
            template = self._response_template(
                Opcode.RC_RDMA_READ_RESPONSE_ONLY,
                first[_READ_UNIFORM_COLUMNS].tobytes(),
                qp.effective_peer_qp,
            )
            self.tx_queue.append(
                TemplateEncoder(template).stamp(
                    None,
                    batch.endpoint_ids[landed],
                    {
                        "bth.psn": psns[landed],
                        "aeth.msn": psn_run(qp.msn + 1, count),
                    },
                    payload=self.region.read_offset_columnar(offsets, length),
                )
            )
            qp.msn = (qp.msn + count) % PSN_MODULUS
            self.counters.c_reads.inc(count)
            self.counters.c_responses.inc(count)
        return count

    def receive_packet(self, packet: RoceV2Packet) -> bool:
        """Ingest an already-parsed packet (fast path for simulations)."""
        qp = self._queue_pairs.get(packet.bth.dest_qp)
        if qp is None:
            self.counters.c_dropped_unknown_qp.inc()
            return False
        if not qp.accept(packet.bth.psn):
            self.counters.c_dropped_psn.inc()
            return False

        opcode = packet.bth.opcode
        try:
            if opcode_has_reth(opcode) and opcode in (
                Opcode.RC_RDMA_WRITE_ONLY,
                Opcode.UC_RDMA_WRITE_ONLY,
            ):
                reth = packet.reth
                if reth is None or reth.dma_length != len(packet.payload):
                    self.counters.c_dropped_decode.inc()
                    return False
                self.region.dma_write(
                    reth.virtual_address, packet.payload, rkey=reth.rkey
                )
                self.counters.c_writes.inc()
                return True
            if opcode == Opcode.RC_RDMA_READ_REQUEST:
                reth = packet.reth
                if reth is None:
                    self.counters.c_dropped_decode.inc()
                    return False
                data = self.region.dma_read(
                    reth.virtual_address, reth.dma_length, rkey=reth.rkey
                )
                self.counters.c_reads.inc()
                self._enqueue_response(packet, qp, Opcode.RC_RDMA_READ_RESPONSE_ONLY, data)
                return True
            if opcode_has_atomic_eth(opcode):
                atomic = packet.atomic_eth
                if atomic is None:
                    self.counters.c_dropped_decode.inc()
                    return False
                if opcode == Opcode.RC_FETCH_ADD:
                    original = self.region.dma_fetch_add(
                        atomic.virtual_address, atomic.swap_add, rkey=atomic.rkey
                    )
                else:
                    original = self.region.dma_compare_swap(
                        atomic.virtual_address,
                        atomic.compare,
                        atomic.swap_add,
                        rkey=atomic.rkey,
                    )
                self.counters.c_atomics.inc()
                if qp.respond_atomics:
                    ack = original.to_bytes(8, "big")
                    self._enqueue_response(packet, qp, Opcode.RC_ATOMIC_ACKNOWLEDGE, ack)
                return True
        except RegionAccessError:
            self.counters.c_dropped_access.inc()
            return False

        self.counters.c_dropped_opcode.inc()
        return False

    # ------------------------------------------------------------------
    # Response path (READ responses, atomic ACKs; still zero host CPU)
    # ------------------------------------------------------------------

    def _response_template(self, opcode: int, reflected: bytes, peer_qp: int) -> np.ndarray:
        """The READ RESPONSE or ATOMIC ACKNOWLEDGE both granularities stamp
        (PSN, MSN and payload zeroed) to a request whose :data:`_READ_UNIFORM_COLUMNS`
        hold ``reflected``: addressing is reflected from it, the NIC knows
        nothing else.  An atomic's ``reflected`` length is its 8-byte payload."""

        def craft() -> bytes:
            src_mac, src_ip, src_port, _qp, length = _REFLECTED.unpack(reflected)
            return RoceV2Packet(
                eth=EthernetHeader(dst_mac=_mac_str(src_mac), src_mac=self.mac),
                ipv4=Ipv4Header(src_ip=self.ip, dst_ip=_ipv4_str(src_ip)),
                udp=UdpHeader(src_port=src_port),
                bth=Bth(opcode=int(opcode), dest_qp=peer_qp),
                aeth=Aeth(),
                payload=bytes(length),
            ).pack()

        return scalar_template(
            ("response", opcode, self.mac, self.ip, peer_qp, reflected), craft
        )

    def _enqueue_response(
        self, request: RoceV2Packet, qp: QueuePair, opcode: int, data: bytes
    ) -> None:
        """Queue the response ``opcode`` carrying ``data`` on :attr:`tx_queue`
        for the network model to deliver back to the requester: a READ's
        bytes, or an atomic's pre-operation value (8 bytes, big-endian) --
        the half of the FETCH_ADD contract Append's tail reservation needs."""
        fields = {"bth.psn": request.bth.psn, "aeth.msn": qp.next_msn()}
        reflected = _REFLECTED.pack(
            _mac_bytes(request.eth.src_mac), _ipv4_bytes(request.ipv4.src_ip),
            request.udp.src_port, request.bth.dest_qp.to_bytes(_QP_BYTES, "big"),
            len(data),
        )
        template = self._response_template(opcode, reflected, qp.effective_peer_qp)
        self.tx_queue.append(stamp_frame(template, fields, data))
        self.counters.c_responses.inc()

    def transmit(self) -> List[Union[bytes, FrameBatch]]:
        """Drain and return everything queued outbound, in execution order."""
        frames, self.tx_queue = self.tx_queue, []
        return frames
