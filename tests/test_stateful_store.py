"""Stateful property-based testing of DartStore semantics.

DART is deliberately lossy, so the model invariants are subtle but exact
(given 32-bit checksums, where fake matches are ~2^-32 and never occur at
test scales):

1. an answered query for key k returns the *latest* value put for k --
   every put overwrites all N of k's slots, so no stale value survives;
2. a key put and not subsequently collided is answered;
3. a never-put key is never answered.

Collisions between different keys may turn (2) into an empty return --
that is the probabilistic design -- but can never violate (1) or (3).
"""

import random

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.core.config import DartConfig
from repro.collector.store import DartStore

KEYS = [("flow", i) for i in range(40)]


class DartStoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = DartStore(
            DartConfig(slots_per_collector=1 << 10, num_collectors=2, value_bytes=8)
        )
        self.latest = {}

    @rule(key=st.sampled_from(KEYS), value=st.binary(min_size=1, max_size=8))
    def put(self, key, value):
        self.store.put(key, value)
        self.latest[key] = value.ljust(8, b"\x00")

    @rule(key=st.sampled_from(KEYS))
    def get_put_key(self, key):
        result = self.store.get(key)
        if key in self.latest:
            if result.answered:
                # Invariant 1: only the latest value can come back.
                assert result.value == self.latest[key]
        else:
            # Invariant 3: unknown keys are never answered.
            assert not result.answered

    @invariant()
    def fresh_put_is_readable(self):
        # Touch a sentinel key: put-then-get must answer immediately
        # (no intervening writes can have happened within the invariant).
        self.store.put(("sentinel",), b"s")
        result = self.store.get(("sentinel",))
        assert result.answered and result.value == b"s".ljust(8, b"\x00")


TestDartStoreStateful = DartStoreMachine.TestCase
TestDartStoreStateful.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)


class TestNicFuzz:
    """The NIC must treat arbitrary bytes as hostile input: drop, count,
    never raise, never write memory."""

    def test_random_frames_never_crash(self):
        from repro.mem.region import MemoryRegion
        from repro.rdma.nic import RdmaNic
        from repro.rdma.qp import QueuePair

        rng = random.Random(0)
        region = MemoryRegion(size=256, base_address=0x1000, rkey=1)
        nic = RdmaNic(region)
        nic.create_queue_pair(QueuePair(qp_number=5))
        blank = region.snapshot()
        for _ in range(500):
            frame = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))
            assert nic.receive_frame(frame) is False
        assert nic.counters.frames_received == 500
        assert nic.counters.frames_dropped == 500
        assert region.snapshot() == blank  # memory untouched

    def test_bitflipped_valid_frames_never_crash(self):
        """Mutations of a valid frame are dropped (iCRC) without writes."""
        from repro.mem.region import MemoryRegion
        from repro.rdma.nic import RdmaNic
        from repro.rdma.packets import Bth, Opcode, Reth, RoceV2Packet
        from repro.rdma.qp import PsnPolicy, QueuePair

        region = MemoryRegion(size=256, base_address=0x1000, rkey=1)
        nic = RdmaNic(region)
        nic.create_queue_pair(
            QueuePair(qp_number=5, policy=PsnPolicy.IGNORE)
        )
        valid = RoceV2Packet(
            bth=Bth(opcode=int(Opcode.RC_RDMA_WRITE_ONLY), dest_qp=5, psn=0),
            reth=Reth(virtual_address=0x1000, rkey=1, dma_length=4),
            payload=b"good",
        ).pack()
        # Bytes the iCRC does *not* cover: the whole Ethernet header (L2 is
        # protected by the FCS, which this model omits) and the masked
        # volatile fields -- IPv4 DSCP/TTL/checksum, UDP checksum, BTH
        # resv8a.  Offsets for this fixed frame layout:
        exempt = set(range(14)) | {15, 22, 24, 25, 40, 41, 46}
        rng = random.Random(1)
        executed = 0
        for _ in range(300):
            mutated = bytearray(valid)
            positions = []
            for _ in range(rng.randrange(1, 4)):
                position = rng.randrange(len(mutated))
                positions.append(position)
                mutated[position] ^= 1 << rng.randrange(8)
            if nic.receive_frame(bytes(mutated)):
                executed += 1
                # Any accepted mutation must be confined to bytes the
                # invariant CRC legitimately does not protect.
                assert all(p in exempt for p in positions), positions
        assert executed < 100  # the vast majority are dropped
