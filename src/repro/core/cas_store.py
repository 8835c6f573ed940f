"""Packet-level WRITE + Compare&Swap storage strategy (paper section 7).

"For N = 2 hashes and an initially empty table, we can use an RDMA write
with one hash and Compare & Swap with another (writing to a second slot
only if it is empty), which simulations show can potentially improve
queryability."

RDMA atomics operate on a single 8-byte word, so this strategy applies to
*compact* slots: checksum and value packed into 64 bits (e.g. a 24-bit
checksum plus a 40-bit value -- enough for counters, event codes or record
pointers).  The class below runs the real packet path: copy 0 is an
RDMA WRITE, copy 1 an RDMA CMP_SWAP with compare=0, both stamped from
RoCEv2 templates and executed by the NIC model.  The statistical twin for
arbitrary slot sizes is :func:`repro.core.simulator.simulate_cas_strategy`.

Kept on purpose: backs the WRITE+CAS ablation in EXPERIMENTS.md
(``bench_ablation_cas.py``).
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.addressing import DartAddressing
from repro.core.config import DartConfig
from repro.fabric.fabric import Fabric, InlineFabric
from repro.mem.region import MemoryRegion
from repro.rdma.frames import scalar_template, stamp_frame
from repro.rdma.nic import RdmaNic
from repro.rdma.packets import AtomicEth, Bth, Opcode, Reth, RoceV2Packet
from repro.rdma.qp import PsnPolicy, QueuePair
from repro.hashing.hash_family import Key

#: Fabric endpoint ID the CAS store's NIC is attached at.
CAS_ENDPOINT_ID = 0

#: The store NIC's responder QP, the destination of every put frame.
CAS_QP = 0x300

#: Compact-slot geometry: 24-bit checksum, 40-bit value, one 8-byte word.
CHECKSUM_BITS = 24
VALUE_BITS = 40
_CHECKSUM_MASK = (1 << CHECKSUM_BITS) - 1
_VALUE_MASK = (1 << VALUE_BITS) - 1


def pack_compact_slot(checksum: int, value: int) -> int:
    """Pack (24-bit checksum, 40-bit value) into one atomic word."""
    if not 0 <= checksum <= _CHECKSUM_MASK:
        raise ValueError(f"checksum {checksum:#x} exceeds {CHECKSUM_BITS} bits")
    if not 0 <= value <= _VALUE_MASK:
        raise ValueError(f"value {value:#x} exceeds {VALUE_BITS} bits")
    return (checksum << VALUE_BITS) | value


def unpack_compact_slot(word: int) -> Tuple[int, int]:
    """Inverse of :func:`pack_compact_slot`."""
    return (word >> VALUE_BITS) & _CHECKSUM_MASK, word & _VALUE_MASK


class CasDartStore:
    """A compact-slot DART store using the WRITE+CAS strategy.

    Slots are single 8-byte words; a stored word of 0 means "empty" (a
    real key whose packed word is 0 is remapped to 1 -- a one-in-2^64
    perturbation the checksum machinery absorbs).

    Parameters
    ----------
    num_slots:
        Region size in 8-byte slots.
    fabric:
        The transport WRITE/CMP_SWAP frames traverse; defaults to a
        private :class:`~repro.fabric.InlineFabric`.  The store NIC is
        attached at endpoint :data:`CAS_ENDPOINT_ID`.
    """

    def __init__(self, num_slots: int = 1 << 16, fabric: Optional[Fabric] = None) -> None:
        if num_slots < 1:
            raise ValueError(f"num_slots must be >= 1, got {num_slots}")
        self.num_slots = num_slots
        # Reuse the standard addressing with a 2-copy compact config.
        self.config = DartConfig(
            redundancy=2,
            checksum_bits=CHECKSUM_BITS,
            value_bytes=5,  # 40 bits, packed into the atomic word
            slots_per_collector=num_slots,
            num_collectors=1,
        )
        self.addressing = DartAddressing(self.config)
        self.region = MemoryRegion(
            size=num_slots * 8, base_address=0x400000, rkey=0xCA5
        )
        self.nic = RdmaNic(self.region)
        self.qp = self.nic.create_queue_pair(
            QueuePair(qp_number=CAS_QP, policy=PsnPolicy.IGNORE)
        )
        self.fabric = fabric if fabric is not None else InlineFabric()
        self.fabric.attach(CAS_ENDPOINT_ID, self.nic)
        registry = obs.get_registry()
        labels = registry.instance_labels("CasDartStore")
        #: WRITE+CAS puts issued.
        self.c_puts = registry.counter("cas_store_puts", labels=labels)
        #: Queries served (with and without a value).
        self.c_gets = registry.counter("cas_store_gets", labels=labels)
        #: Queries that returned a value.
        self.c_gets_answered = registry.counter(
            "cas_store_gets_answered", labels=labels
        )
        self._t_put_many = registry.stage("cas_put_many")

    def __repr__(self) -> str:
        return f"CasDartStore(num_slots={self.num_slots})"

    def _slot_address(self, slot_index: int) -> int:
        return self.region.base_address + slot_index * 8

    # ------------------------------------------------------------------
    # Write path: one WRITE frame + one CMP_SWAP frame
    # ------------------------------------------------------------------

    def put(self, key: Key, value: int) -> None:
        """Store a 40-bit value under ``key`` via WRITE + CAS frames: the
        body :meth:`put_many` loops, one key's WRITE before its CAS (DESIGN.md,
        "Batch of one")."""
        write, cas = self._craft_put_frames(key, value)
        self.fabric.send(CAS_ENDPOINT_ID, write)
        self.fabric.send(CAS_ENDPOINT_ID, cas)
        self.c_puts.inc()

    def put_many(self, items: Iterable[Tuple[Key, int]]) -> int:
        """Batched puts: looped :meth:`put`, then one flush.

        Frame order is preserved per link, so each key's WRITE lands before
        its CAS -- the ordering the strategy depends on.  Returns the
        number of frames offered.
        """
        started = self._t_put_many.start()
        count = 0
        for key, value in items:
            self.put(key, value)
            count += 1
        self.fabric.flush()
        self._t_put_many.stop(started)
        return 2 * count

    def _put_template(self, opcode: int) -> np.ndarray:
        """The put's 8-byte WRITE or its CMP_SWAP (compare=0), VA and word
        zeroed; ``pack`` keeps the RETH or the AtomicETH the opcode has."""
        rkey = self.region.rkey
        return scalar_template(
            ("cas_put", opcode, rkey),
            lambda: RoceV2Packet(
                bth=Bth(opcode=int(opcode), dest_qp=CAS_QP),
                reth=Reth(rkey=rkey, dma_length=8),
                atomic_eth=AtomicEth(rkey=rkey),
                payload=bytes(8 if opcode == Opcode.RC_RDMA_WRITE_ONLY else 0),
            ).pack(),
        )

    def _craft_put_frames(self, key: Key, value: int) -> Tuple[bytes, bytes]:
        """The (WRITE, CMP_SWAP) wire frames for one put."""
        resolved = self.addressing.resolve(key)
        # A stored 0 means "empty", so a real word of 0 is remapped to 1.
        word = pack_compact_slot(resolved.checksum, value) or 1
        write_slot, cas_slot = resolved.slot_indexes
        write = stamp_frame(
            self._put_template(Opcode.RC_RDMA_WRITE_ONLY),
            {"reth.virtual_address": self._slot_address(write_slot)},
            word.to_bytes(8, "big"),
        )
        cas = stamp_frame(
            self._put_template(Opcode.RC_CMP_SWAP),
            {"atomic_eth.virtual_address": self._slot_address(cas_slot),
             "atomic_eth.swap_add": word},
        )
        return write, cas

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def get(self, key: Key) -> Optional[int]:
        """The stored 40-bit value, or None on an empty return.

        Reads both slots, keeps checksum matches, and prefers the WRITE
        slot (it holds the freshest data when both match but disagree).
        """
        resolved = self.addressing.resolve(key)
        matches = []
        for slot_index in resolved.slot_indexes:
            raw = self.region.dma_read(self._slot_address(slot_index), 8)
            word = int.from_bytes(raw, "big")
            if word == 0:
                continue
            checksum, value = unpack_compact_slot(word)
            if checksum == resolved.checksum:
                matches.append(value)
        self.c_gets.inc()
        if not matches:
            return None
        self.c_gets_answered.inc()
        return matches[0]
