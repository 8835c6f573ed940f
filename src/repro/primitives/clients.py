"""One-sided query clients for the primitive stores.

Remote operators read Append rings and counter/sketch banks without
waking the collector CPU: RDMA READ requests go in through the fabric,
and the collector NIC serves them from registered memory.  Responses are
routed through the store's shared :class:`ResponseDemux`, so query
clients and Append writers can poll the same endpoint without stealing
each other's frames.

This is the query-side companion to the switch-side translators; the
local read paths (``AppendStore.recover``, ``CounterStore.estimate``)
remain the cheap option when the operator runs on the collector host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.collector.counters import CounterStore

from repro import obs
from repro.fabric.fabric import Fabric
from repro.hashing.hash_family import Key
from repro.primitives.append import AppendStore
from repro.primitives.translator import ReadResponseRows, ReadRun, ResponseDemux
from repro.rdma.frames import FrameBatch, FramePlan, FramePool, TemplateEncoder
from repro.rdma.nic import RdmaNic
from repro.rdma.packets import Bth, Opcode, Reth, RoceV2Packet
from repro.rdma.qp import PSN_MODULUS, PsnPolicy, QueuePair, psn_run

#: Requester QP number of operator 0 reading Append rings.
APPEND_READER_QP_BASE = 0xA00

#: Requester QP number of operator 0 reading counter banks.
COUNTER_READER_QP_BASE = 0xB00

#: Fewest READs, over all its runs, :func:`read_runs` sends as one frame matrix.
#: Measured (DESIGN.md, "The run-length cuts"): a matrix round trip costs
#: ~145 us fixed + ~2 us a row, a stamped scalar READ ~22 us, so the matrix is
#: level at 7 and ahead from 8 on a clean and a 2%-loss fabric alike.  The
#: 2 READs of a point lookup stay frames, a 64-key sweep's 128 one matrix.
COLUMNAR_MIN_READS = 8


class OneSidedReader:
    """One requester QP's worth of RDMA READ plumbing over a fabric.

    Crafts READ requests, polls the shared demux, and matches responses
    by PSN.  Requests can be lost by an impaired fabric; the response leg
    is modelled lossless, so a missing response means the request never
    executed and readers may simply retry.

    Parameters
    ----------
    fabric / endpoint_id:
        Transport and endpoint of the target collector NIC.
    nic:
        The target NIC (a requester QP is registered on it at bring-up).
    qp_number:
        This reader's QP number (responses come back addressed to it).
    demux:
        The endpoint's shared response router.
    rkey:
        Remote key of the target region.
    """

    def __init__(
        self,
        fabric: Fabric,
        endpoint_id: int,
        nic: RdmaNic,
        qp_number: int,
        demux: ResponseDemux,
        rkey: int,
    ) -> None:
        self.fabric = fabric
        self.endpoint_id = endpoint_id
        self.qp = nic.create_queue_pair(
            QueuePair(qp_number=qp_number, policy=PsnPolicy.IGNORE)
        )
        self.demux = demux
        self.rkey = rkey
        self._psn = 0
        self._pool = FramePool()
        #: Every READ this reader sends: length, PSN and address vary.
        self._read_plan = FramePlan(
            RoceV2Packet(
                bth=Bth(opcode=int(Opcode.RC_RDMA_READ_REQUEST), dest_qp=qp_number),
                reth=Reth(rkey=rkey),
            ).pack(),
            "reth.dma_length", "bth.psn", "reth.virtual_address",
        )
        registry = obs.get_registry()
        self._tracer = obs.get_tracer()
        labels = registry.instance_labels("OneSidedReader")
        #: READ request frames issued.
        self.c_reads_sent = registry.counter(
            "primitive_read_requests", labels=labels
        )

    def __repr__(self) -> str:
        return (
            f"OneSidedReader(endpoint={self.endpoint_id}, "
            f"qp={self.qp.qp_number:#x})"
        )

    def _next_psn(self) -> int:
        psn = self._psn
        self._psn = (psn + 1) % PSN_MODULUS
        return psn

    def _craft_read(self, address: int, length: int, psn: int) -> bytes:
        return self._read_plan.stamp(length, psn, address)

    def read_run(self, addresses: Sequence[int], length: int) -> Tuple[np.ndarray, np.ndarray]:
        """Pipelined READs of this reader's one run: :func:`read_runs`."""
        return read_runs(((self, addresses),), length)

    @staticmethod
    def _read_run_batch(runs: Sequence[Run], length: int) -> FrameBatch:
        """:func:`read_runs`' requests as one pooled matrix, each run on its
        reader's next PSNs: a row is what its reader's :meth:`_craft_read`
        stamps on the same operands, its template that reader's READ plan."""
        rows, psns = [], []
        for reader, addresses in runs:
            start, reader._psn = reader._psn, (reader._psn + len(addresses)) % PSN_MODULUS
            psns.append(psn_run(start, len(addresses)))
            rows.append(np.frombuffer(reader._read_plan.fix(length)[0], dtype=np.uint8))
        counts = [len(psn) for psn in psns]
        return TemplateEncoder(*rows).stamp(
            runs[0][0]._pool,
            np.repeat([reader.endpoint_id for reader, _addresses in runs], counts),
            {
                "reth.virtual_address": np.concatenate(
                    [np.asarray(addresses, dtype=np.uint64) for _reader, addresses in runs]
                ),
                "bth.psn": np.concatenate(psns),
            },
            template_of=np.repeat(np.arange(len(runs)), counts) if len(runs) > 1 else None,
        )


#: One reader's READs: the reader, and the addresses it reads.
Run = Tuple[OneSidedReader, Sequence[int]]


def read_runs(runs: Sequence[Run], length: int) -> Tuple[np.ndarray, np.ndarray]:
    """Every run's READs of ``length`` bytes in one pass over the readers' one
    fabric, as one requester NIC issues them: all requests, one flush, then
    one drain per reader.

    Returns ``(payloads, answered)`` over the runs' addresses in order:
    ``uint8[n, length]``, row ``i`` the bytes at address ``i``, and
    ``bool[n]``, False where the request was lost (that row stays zero).
    :data:`COLUMNAR_MIN_READS` or more READs travel as one frame matrix
    (:meth:`OneSidedReader._read_run_batch`, one span per layer when traced);
    fewer as frames with per-frame spans, the reference the batch path is
    diffed against.  Responses are placed by PSN distance from their run's
    first PSN, so ordering quirks in the request leg cannot misattribute
    payloads.
    """
    fabric, tracer = runs[0][0].fabric, runs[0][0]._tracer
    starts, total = [], 0
    for reader, addresses in runs:
        starts.append(reader._psn)
        total += len(addresses)
    trace_id = tracer.active_trace_id if tracer.enabled else None
    read_sid = None
    if trace_id is not None and total:
        read_sid = tracer.span(trace_id, "query.read_run", f"reads={total} len={length}")
    if total >= COLUMNAR_MIN_READS:
        batch = OneSidedReader._read_run_batch(runs, length)
        if read_sid is not None:
            tracer.bind_batch(batch, trace_id, parent=read_sid)
        fabric.send_batch(batch)
    else:
        for reader, addresses in runs:
            for address in addresses:
                frame = reader._craft_read(address, length, reader._next_psn())
                if read_sid is not None:
                    tracer.bind_frame(frame, trace_id, parent=read_sid)
                fabric.send(reader.endpoint_id, frame)
    fabric.flush()
    payloads = np.zeros((total, length), dtype=np.uint8)
    answered = np.zeros(total, dtype=bool)
    offset = 0
    for (reader, addresses), start in zip(runs, starts):
        count = len(addresses)
        reader.c_reads_sent.inc(count)
        reader.demux.poll(fabric, reader.endpoint_id)
        for response in reader.demux.take(reader.qp.qp_number):
            if isinstance(response, ReadResponseRows):
                # Position in the run = PSN distance from its first PSN (the
                # uint32 difference wraps by a multiple of the modulus);
                # anything outside [0, count) answers someone else.
                positions = (response.psns - start) % PSN_MODULUS
                mine = positions < count
                rows = offset + positions[mine]
                payloads[rows] = response.payloads[mine]
                answered[rows] = True
            elif response.opcode == Opcode.RC_RDMA_READ_RESPONSE_ONLY:
                position = (response.psn - start) % PSN_MODULUS
                if position < count:
                    payloads[offset + position] = np.frombuffer(response.payload, np.uint8)
                    answered[offset + position] = True
        offset += count
    return payloads, answered


def read_ring_window(
    store: AppendStore,
    start: int,
    tail: int,
    read_run: ReadRun,
) -> List[Tuple[int, bytes]]:
    """Records ``[start, tail)`` of an Append ring, read through ``read_run``.

    One pipelined READ per record (``read_run`` is
    :meth:`OneSidedReader.read_run` or a retrying wrapper of it); returns
    ``(absolute_index, bytes)`` pairs oldest first, omitting records whose
    READ went unanswered.
    """
    indexes = range(start, tail)
    addresses = [
        store.data_address + (index % store.capacity) * store.record_bytes
        for index in indexes
    ]
    payloads, answered = read_run(addresses, store.record_bytes)
    return [
        (index, payload.tobytes())
        for index, payload, ok in zip(indexes, payloads, answered.tolist())
        if ok
    ]


@dataclass
class FollowBatch:
    """One incremental read from :meth:`AppendQueryClient.follow`.

    ``records`` are the newly appended ``(absolute_index, bytes)`` pairs
    since the previous call (READs lost in flight are omitted and will
    *not* be retried -- the cursor has moved past them, matching the
    ring's own loss model); ``missed`` counts records the ring overwrote
    before this follower caught up; ``cursor`` is the absolute index the
    next call resumes from.
    """

    records: List[Tuple[int, bytes]]
    cursor: int
    missed: int = 0

    def __len__(self) -> int:
        return len(self.records)

    def values(self) -> List[bytes]:
        """Just the new record payloads, oldest first."""
        return [record for _index, record in self.records]


class AppendQueryClient:
    """Remote head/tail recovery of an Append ring over one-sided READs.

    Parameters
    ----------
    store:
        The ring to read (supplies region geometry, NIC and demux).
    operator_id:
        Distinguishes operator stations; each gets its own requester QP.
    """

    def __init__(self, store: AppendStore, operator_id: int = 0) -> None:
        if operator_id < 0:
            raise ValueError("operator_id must be non-negative")
        self.store = store
        self.reader = OneSidedReader(
            store.fabric,
            store.endpoint_id,
            store.nic,
            APPEND_READER_QP_BASE + operator_id,
            store.demux,
            store.region.rkey,
        )
        #: Absolute ring index the next :meth:`follow` resumes from
        #: (None until the first follow establishes a baseline).
        self._cursor: Optional[int] = None
        registry = obs.get_registry()
        labels = registry.instance_labels("AppendQueryClient")
        #: Incremental follow reads served.
        self.c_follows = registry.counter(
            "append_remote_follows", labels=labels
        )
        #: Records the ring overwrote before a follower caught up.
        self.c_follow_missed = registry.counter(
            "append_follow_missed", labels=labels
        )

    def __repr__(self) -> str:
        return f"AppendQueryClient(store={self.store!r})"

    def tail(self) -> Optional[int]:
        """The ring's absolute tail, read over the wire (None if lost)."""
        payloads, answered = self.reader.read_run([self.store.tail_address], 8)
        return int(payloads.view(">u8")[0, 0]) if answered[0] else None

    @property
    def cursor(self) -> Optional[int]:
        """The absolute index the next :meth:`follow` resumes from."""
        return self._cursor

    def follow(self) -> Optional[FollowBatch]:
        """Incremental tail-follow: only the records since the last call.

        Reads the tail pointer, then pipelines READs for just the
        ``[cursor, tail)`` window -- the ROADMAP follow-up that lets the
        journal follower and any log-shipping operator tail a busy ring
        without re-scanning it on every poll.  The first call establishes
        the cursor at the ring's head, returning everything readable
        (``AppendStore.recover``'s records); later calls only the delta.

        Records the ring overwrote before the follower caught up are
        counted in ``missed`` (and the ``append_follow_missed`` series)
        and skipped, mirroring overwrite-oldest semantics.  Returns
        ``None`` -- cursor untouched -- when the tail read was lost.
        """
        tail = self.tail()
        if tail is None:
            return None
        head = max(0, tail - self.store.capacity)
        cursor = head if self._cursor is None else self._cursor
        missed = max(0, head - cursor)
        start = min(max(cursor, head), tail)
        records = read_ring_window(self.store, start, tail, self.reader.read_run)
        self._cursor = tail
        self.c_follows.inc()
        if missed:
            self.c_follow_missed.inc(missed)
        return FollowBatch(records=records, cursor=tail, missed=missed)


class CounterQueryClient:
    """Remote count-min estimates from a counter bank over one-sided READs.

    Parameters
    ----------
    store:
        The :class:`~repro.collector.counters.CounterStore` (or
        :class:`~repro.primitives.sketch.SketchStore`) to read.
    operator_id:
        Distinguishes operator stations; each gets its own requester QP.
    """

    def __init__(self, store: "CounterStore", operator_id: int = 0) -> None:
        if operator_id < 0:
            raise ValueError("operator_id must be non-negative")
        self.store = store
        self.reader = OneSidedReader(
            store.fabric,
            store.endpoint_id,
            store.nic,
            COUNTER_READER_QP_BASE + operator_id,
            store.demux,
            store.region.rkey,
        )
        self._read_cells = store.translator.cell_reader(self.reader.read_run)
        registry = obs.get_registry()
        labels = registry.instance_labels("CounterQueryClient")
        #: Remote estimates served.
        self.c_estimates = registry.counter(
            "counter_remote_estimates", labels=labels
        )

    def __repr__(self) -> str:
        return f"CounterQueryClient(store={self.store!r})"

    def estimate(self, key: Key) -> Optional[int]:
        """Remote count-min estimate: min across the key's row cells.

        Pipelines one READ per row and takes the minimum of the cells
        that came back; ``None`` when every READ was lost.
        """
        self.c_estimates.inc()
        return self.store.translator.addressing.estimate(key, self._read_cells)
