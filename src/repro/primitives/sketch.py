"""Sketch-Merge's two halves: switch-resident sketches, collector banks.

Switches keep a local count-min sketch in register arrays
(:class:`SwitchSketch`) and periodically fold it into collector memory
through the :class:`~repro.primitives.translator.SketchMergeTranslator`
-- one FETCH_ADD per non-zero cell.  The collector side
(:class:`SketchStore`) is a :class:`~repro.collector.counters.CounterStore`
bank plus merge plumbing; both sides address cells through the same
:class:`~repro.primitives.translator.CountMinAddressing`, so a key hashes to
the same cells on the switch and in the collector bank.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.collector.counters import CounterStore
from repro.hashing.hash_family import HashFamily, Key
from repro.primitives.translator import CountMinAddressing, check_amount


class SwitchSketch:
    """A switch-resident count-min sketch in register arrays.

    The switch-local half of Sketch-Merge: updates are plain register
    increments (no wire traffic), and the whole sketch is periodically
    merged into a collector bank and cleared.  Addressing is identical to
    :class:`~repro.collector.counters.CounterStore` with the same shape
    and seed, so merged cells line up bit for bit.

    Parameters
    ----------
    cells_per_row / rows:
        Sketch shape (must match the target bank to merge).
    """

    def __init__(self, cells_per_row: int = 1 << 12, rows: int = 2) -> None:
        if cells_per_row < 1:
            raise ValueError(f"cells_per_row must be >= 1, got {cells_per_row}")
        if rows < 1:
            raise ValueError(f"rows must be >= 1, got {rows}")
        self.cells_per_row = cells_per_row
        self.rows = rows
        #: Cell addressing, equal to a mergeable bank's ``translator.addressing``.
        self.addressing = CountMinAddressing(HashFamily(seed=0), rows, cells_per_row)
        #: The register arrays: ``uint64[rows, cells_per_row]``.
        self.cells = np.zeros((rows, cells_per_row), dtype=np.uint64)

    def __repr__(self) -> str:
        return f"SwitchSketch(cells_per_row={self.cells_per_row}, rows={self.rows})"

    def update(self, key: Key, amount: int = 1) -> None:
        """Count ``key`` in every row (a register increment per row)."""
        check_amount(amount)
        self.cells.reshape(-1)[self.addressing.key_cells(key)] += np.uint64(amount)

    def update_many(self, items: Iterable[Tuple[Key, int]]) -> int:
        """Count a batch of ``(key, amount)`` pairs; returns keys counted."""
        count = 0
        for key, amount in items:
            self.update(key, amount)
            count += 1
        return count

    def estimate(self, key: Key) -> int:
        """Local count-min estimate (minimum across rows)."""
        registers = self.cells.reshape(-1)
        return self.addressing.estimate(
            key, lambda cells: registers[cells].tolist()
        )

    def compatible_with(self, store: CounterStore) -> bool:
        """Whether this sketch addresses cells exactly like ``store``."""
        return store.translator.addressing == self.addressing


class SketchStore(CounterStore):
    """A collector bank that switch sketches merge into over the wire.

    Everything a :class:`~repro.collector.counters.CounterStore` is --
    same region layout, FETCH_ADD write path, count-min reads -- plus the
    Sketch-Merge entry point: :meth:`merge_sketch` lowers a compatible
    :class:`SwitchSketch` through the translator, so merged counts arrive
    as real frames and reconcile against the NIC/fabric counters.
    """

    def merge_sketch(self, sketch: SwitchSketch) -> int:
        """Fold a switch sketch into this bank; returns frames offered.

        One FETCH_ADD per non-zero sketch cell.  The sketch itself is
        left untouched (callers zero ``sketch.cells`` after a successful
        merge).
        """
        if not sketch.compatible_with(self):
            raise ValueError("sketch is not mergeable (shape/seed differ)")
        return self.merger().merge(sketch.cells)
