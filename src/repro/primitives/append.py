"""The Append primitive's collector side: a multi-writer ring buffer.

Layout of the registered region: an 8-byte big-endian tail pointer at
offset 0, then ``capacity`` fixed-size record slots.  The tail counts
*absolute* appends (it never wraps to the ring size), so the readable
window is always ``[max(0, tail - capacity), tail)`` -- overwrite-oldest
semantics with no head pointer to maintain on the write path.

Writers are switch-side :class:`~repro.primitives.translator.AppendTranslator`
instances, one per switch, each with its own responder QP so the NIC's
PSN state machine and the collector's atomic ACKs stay per-writer.  The
store itself is the zero-CPU reader: :meth:`recover` walks local memory
only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import obs
from repro.fabric.fabric import Fabric, InlineFabric
from repro.mem.region import MemoryRegion
from repro.rdma.nic import RdmaNic
from repro.rdma.qp import PsnPolicy, QueuePair
from repro.primitives.translator import AppendTranslator, ResponseDemux

#: Fabric endpoint ID the ring's NIC is attached at by default.
APPEND_ENDPOINT_ID = 0

#: Responder QP number of writer 0; writer ``i`` gets ``BASE + i``.
WRITER_QP_BASE = 0x300


@dataclass
class RingSnapshot:
    """A consistent read of the ring: head/tail plus the readable records.

    ``records`` holds ``(absolute_index, record_bytes)`` pairs in append
    order, oldest readable record first.
    """

    #: Absolute index of the oldest readable record.
    head: int
    #: Absolute index one past the newest record (total appends ever).
    tail: int
    #: ``(absolute_index, bytes)`` pairs, oldest first.
    records: List[Tuple[int, bytes]]

    def __len__(self) -> int:
        return len(self.records)

    def values(self) -> List[bytes]:
        """Just the record payloads, oldest first."""
        return [record for _index, record in self.records]


class AppendStore:
    """Collector-side state of one Append ring: region, NIC, recovery.

    Parameters
    ----------
    capacity:
        Ring slots; once the tail laps it, oldest records are overwritten.
    record_bytes:
        Fixed slot width; shorter appends are zero-padded.
    base_address:
        Virtual address of the tail pointer (slot 0 follows at +8).
    fabric:
        Transport writers reach this ring over; defaults to a private
        :class:`~repro.fabric.InlineFabric`.
    endpoint_id:
        Fabric endpoint the ring NIC attaches at.
    """

    def __init__(
        self,
        capacity: int = 1024,
        record_bytes: int = 32,
        base_address: int = 0x400000,
        fabric: Optional[Fabric] = None,
        endpoint_id: int = APPEND_ENDPOINT_ID,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if record_bytes < 1:
            raise ValueError(f"record_bytes must be >= 1, got {record_bytes}")
        self.capacity = capacity
        self.record_bytes = record_bytes
        self.endpoint_id = endpoint_id
        self.region = MemoryRegion(
            size=8 + capacity * record_bytes,
            base_address=base_address,
            rkey=0x88,
        )
        self.nic = RdmaNic(self.region)
        self.fabric = fabric if fabric is not None else InlineFabric()
        self.fabric.attach(endpoint_id, self.nic)
        #: Shared response router for every requester on this endpoint.
        self.demux = ResponseDemux()
        registry = obs.get_registry()
        labels = registry.instance_labels("AppendStore")
        #: Ring recoveries served (each walks local memory only).
        self.c_recoveries = registry.counter(
            "append_store_recoveries", labels=labels
        )

    def __repr__(self) -> str:
        return (
            f"AppendStore(capacity={self.capacity}, "
            f"record_bytes={self.record_bytes}, tail={self.tail()})"
        )

    @property
    def tail_address(self) -> int:
        """Virtual address of the shared 8-byte tail pointer."""
        return self.region.base_address

    @property
    def data_address(self) -> int:
        """Virtual address of ring slot 0."""
        return self.region.base_address + 8

    def register_writer(self, writer_id: int, max_retries: int = 16) -> AppendTranslator:
        """Bring up one switch-side writer: its QP plus its translator.

        Each writer gets a dedicated responder QP (``WRITER_QP_BASE +
        writer_id``) with loss-tolerant PSN resync and atomic ACKs
        enabled -- the reservation round-trip needs the original tail
        value back.
        """
        qp = self.nic.create_queue_pair(
            QueuePair(
                qp_number=WRITER_QP_BASE + writer_id,
                policy=PsnPolicy.RESYNC_ON_GAP,
                respond_atomics=True,
            )
        )
        return AppendTranslator(
            self.fabric,
            self.endpoint_id,
            qp.qp_number,
            tail_address=self.tail_address,
            data_address=self.data_address,
            capacity=self.capacity,
            record_bytes=self.record_bytes,
            rkey=self.region.rkey,
            demux=self.demux,
            writer_id=writer_id,
            max_retries=max_retries,
        )

    # ------------------------------------------------------------------
    # Read path: local memory walks (the collector CPU's only work)
    # ------------------------------------------------------------------

    def tail(self) -> int:
        """Absolute appends ever reserved (the shared tail pointer)."""
        return int.from_bytes(self.region.read_offset(0, 8), "big")

    def record_at(self, index: int) -> bytes:
        """The record slot for absolute ``index`` (``index % capacity``)."""
        slot = index % self.capacity
        return self.region.read_offset(
            8 + slot * self.record_bytes, self.record_bytes
        )

    def recover(self) -> RingSnapshot:
        """Head/tail recovery: every readable record, oldest first.

        Reads the tail pointer once, derives the readable window, and
        walks the slots locally.  Slots reserved by a writer whose WRITE
        was lost read back as whatever the slot last held (the loss
        accounting the theory check prices in).
        """
        tail = self.tail()
        head = max(0, tail - self.capacity)
        records = [
            (index, self.record_at(index)) for index in range(head, tail)
        ]
        self.c_recoveries.inc()
        return RingSnapshot(head=head, tail=tail, records=records)

    def records(self) -> List[bytes]:
        """Readable record payloads, oldest first (recovery shorthand)."""
        return self.recover().values()
