"""Fetch&Add flow counters living directly in collector memory.

Paper section 7: "Fetch & Add can be used to implement flow-counters
directly in collectors' memory (saving resources at switches) or to perform
network-wide aggregation of sketches."  This module builds that idea on the
substrates: each counter key hashes (with the same global hash family) to a
bank of 8-byte cells, and switches emit RDMA FETCH_ADD packets instead of
keeping per-flow state locally.

The switch half of the lowering lives in
:class:`~repro.primitives.translator.KeyIncrementTranslator` (the DTA
Key-Increment primitive, which also owns the count-min cell addressing);
this store wires one translator -- ``store.translator`` -- to its own
bank.  Merging another sketch goes through
:class:`~repro.primitives.translator.SketchMergeTranslator` -- real
FETCH_ADD frames through the fabric and NIC, so ``total_adds()`` and the
``PipelineHealth`` reconciliation see merges like any other traffic.

Collisions behave like a conservative count-min row: a cell may aggregate
several keys, so reads are upper bounds.  Using ``rows > 1`` gives a full
count-min sketch whose read is the minimum across rows -- the "network-wide
aggregation of sketches" use case, since increments from different switches
commute through the atomic adds.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.config import DartConfig
from repro.fabric.fabric import Fabric, InlineFabric
from repro.hashing.hash_family import HashFamily, Key
from repro.mem.region import MemoryRegion
from repro.primitives.translator import (
    KeyIncrementTranslator,
    ResponseDemux,
    SketchMergeTranslator,
)
from repro.rdma.nic import RdmaNic
from repro.rdma.qp import PsnPolicy, QueuePair

#: Fabric endpoint ID the counter bank's NIC is attached at.
COUNTER_ENDPOINT_ID = 0

#: Responder QP number serving FETCH_ADD traffic for the bank.
COUNTER_QP_NUMBER = 0x200

#: Responder QP number serving merge traffic (kept distinct so merges and
#: live increments each look like a well-formed requester stream).
MERGE_QP_NUMBER = 0x201


class CounterStore:
    """A count-min style counter bank updated by one-sided FETCH_ADDs.

    Parameters
    ----------
    cells_per_row:
        Width of each row (8-byte cells).
    rows:
        Number of independent rows; 1 gives plain colliding counters,
        more rows give a count-min sketch.
    config:
        Optional deployment config supplying the hash-family seed.
    fabric:
        The transport FETCH_ADD frames traverse; defaults to a private
        :class:`~repro.fabric.InlineFabric`.  The counter NIC is attached
        at endpoint ``endpoint_id`` (:data:`COUNTER_ENDPOINT_ID` by
        default; pass another to share a fabric with other stores, as the
        self-telemetry exporter does with its Append ring).
    """

    def __init__(
        self,
        cells_per_row: int = 1 << 16,
        rows: int = 1,
        config: Optional[DartConfig] = None,
        base_address: int = 0x200000,
        fabric: Optional[Fabric] = None,
        endpoint_id: int = COUNTER_ENDPOINT_ID,
    ) -> None:
        if cells_per_row < 1:
            raise ValueError(f"cells_per_row must be >= 1, got {cells_per_row}")
        if rows < 1:
            raise ValueError(f"rows must be >= 1, got {rows}")
        self.cells_per_row = cells_per_row
        self.rows = rows
        #: Fabric endpoint this bank's NIC is attached at.
        self.endpoint_id = endpoint_id
        seed = config.seed if config is not None else 0
        self.region = MemoryRegion(
            size=cells_per_row * rows * 8, base_address=base_address, rkey=0x77
        )
        self.nic = RdmaNic(self.region)
        self.qp = self.nic.create_queue_pair(
            QueuePair(qp_number=COUNTER_QP_NUMBER, policy=PsnPolicy.IGNORE)
        )
        self.merge_qp = self.nic.create_queue_pair(
            QueuePair(qp_number=MERGE_QP_NUMBER, policy=PsnPolicy.IGNORE)
        )
        self.fabric = fabric if fabric is not None else InlineFabric()
        self.fabric.attach(self.endpoint_id, self.nic)
        #: Shared response router for query clients on this endpoint.
        self.demux = ResponseDemux()
        #: The switch-side Key-Increment lowering bound to this bank.
        self.translator = KeyIncrementTranslator(
            self.fabric,
            self.endpoint_id,
            self.qp.qp_number,
            base_address=self.region.base_address,
            rkey=self.region.rkey,
            cells_per_row=cells_per_row,
            rows=rows,
            family=HashFamily(seed=seed),
        )
        self._read_cells = self.translator.cell_reader(
            lambda addresses, length: [
                self.region.dma_read(address, length) for address in addresses
            ]
        )
        self._merger: Optional[SketchMergeTranslator] = None
        registry = obs.get_registry()
        labels = registry.instance_labels("CounterStore")
        #: Keys counted through the packet path.
        self.c_adds = registry.counter("counter_store_adds", labels=labels)
        #: Count estimates served.
        self.c_estimates = registry.counter(
            "counter_store_estimates", labels=labels
        )

    def __repr__(self) -> str:
        return f"CounterStore(cells_per_row={self.cells_per_row}, rows={self.rows})"

    # ------------------------------------------------------------------
    # Write path: switches emit FETCH_ADD frames
    # ------------------------------------------------------------------

    def add(self, key: Key, amount: int = 1) -> None:
        """Count ``key`` through the full packet path (switch -> NIC -> DMA).

        A zero ``amount`` is a no-op: nothing is offered to the fabric
        and ``c_adds`` does not move.  Kept beside :meth:`add_many`: a batch
        of one costs ~5x a frame (DESIGN.md, "Batch of one").
        """
        if self.translator.increment(key, amount):
            self.c_adds.inc()

    def add_many(self, items: Iterable[Tuple[Key, int]]) -> int:
        """Batched counting: ``(key, amount)`` pairs through one fabric pass.

        Lowers every non-zero item through the translator's columnar
        FETCH_ADD path -- one pooled frame batch offered via
        :meth:`~repro.fabric.Fabric.send_batch`, then a flush, so
        deferring fabrics apply everything before returning.  Zero-amount
        items are skipped entirely.  Returns the number of frames offered.
        """
        return self._credit(self.translator.increment_many(items))

    def add_folded(self, lanes: np.ndarray, amounts: Sequence[int]) -> int:
        """:meth:`add_many` for keys a caller has already folded."""
        return self._credit(self.translator.increment_folded(lanes, amounts))

    def _credit(self, offered: int) -> int:
        """Count the keys behind ``offered`` frames (``rows`` frames per key)."""
        self.c_adds.inc(offered // self.rows)
        return offered

    # ------------------------------------------------------------------
    # Read path: local memory reads, min across rows
    # ------------------------------------------------------------------

    def estimate(self, key: Key) -> int:
        """Count estimate for ``key`` (an upper bound, as in count-min)."""
        self.c_estimates.inc()
        return self.translator.addressing.estimate(key, self._read_cells)

    def total_adds(self) -> int:
        """Number of atomic operations the NIC has executed."""
        return self.nic.counters.atomics_executed

    # ------------------------------------------------------------------
    # Count-min sketch semantics (section 7: network-wide aggregation)
    # ------------------------------------------------------------------

    def total_count(self) -> int:
        """Sum of all increments (read off row 0, which sees every add)."""
        row0 = self.region.read_offset(0, self.cells_per_row * 8)
        return sum(
            int.from_bytes(row0[offset : offset + 8], "big")
            for offset in range(0, len(row0), 8)
        )

    def cell_matrix(self) -> np.ndarray:
        """The bank as a ``uint64[rows, cells_per_row]`` copy (native order)."""
        image = self.region.read_offset(0, self.cells_per_row * self.rows * 8)
        return (
            np.frombuffer(image, dtype=">u8")
            .astype(np.uint64)
            .reshape(self.rows, self.cells_per_row)
        )

    def error_bound(self) -> tuple:
        """Count-min guarantee ``(epsilon, delta)``.

        With width w and depth d, each estimate exceeds the true count by
        more than ``epsilon * total`` with probability at most ``delta``,
        where ``epsilon = e / w`` and ``delta = e^-d``.
        """
        import math

        return math.e / self.cells_per_row, math.exp(-self.rows)

    def heavy_hitters(self, candidates, threshold: int) -> list:
        """Candidates whose estimated count reaches ``threshold``.

        Count-min cannot enumerate keys, so the operator supplies the
        candidate set (e.g. flows observed by the anomaly backend); the
        upper-bound property guarantees no true heavy hitter is missed.
        Each candidate is estimated exactly once (one bank read and one
        ``c_estimates`` tick per candidate).  Returns ``[(key, estimate)]``
        sorted by estimate, descending.
        """
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        hits = []
        for key in candidates:
            estimate = self.estimate(key)
            if estimate >= threshold:
                hits.append((key, estimate))
        hits.sort(key=lambda item: item[1], reverse=True)
        return hits

    def merger(self) -> SketchMergeTranslator:
        """The Sketch-Merge lowering targeting this bank (lazily built)."""
        if self._merger is None:
            self._merger = SketchMergeTranslator(
                self.fabric,
                self.endpoint_id,
                self.merge_qp.qp_number,
                base_address=self.region.base_address,
                rkey=self.region.rkey,
            )
        return self._merger

    def merge_from(self, other: "CounterStore") -> None:
        """Cell-wise merge of another sketch into this one, on the wire.

        Valid only for identically shaped sketches built from the same
        hash seed (same cell addressing).  The merge is lowered through
        the Sketch-Merge translator: one RC FETCH_ADD frame per non-zero
        source cell travels the fabric and is executed by this bank's
        NIC, so ``total_adds()``, the NIC/region counters and the
        ``PipelineHealth`` reconciliation all account for merges exactly
        like live increment traffic.  Because every update is an atomic
        add, merging commutes with concurrent updates -- the
        "network-wide aggregation of sketches" of paper section 7, e.g.
        folding per-collector sketches into a global one.
        """
        if other.translator.addressing != self.translator.addressing:
            raise ValueError("sketches are not mergeable (shape/seed differ)")
        self.merger().merge(other.cell_matrix())
