"""Regression tests for the CounterStore read/write-path fixes.

Three bugs fixed alongside the primitive translators:

- ``heavy_hitters`` estimated every candidate twice (double bank reads
  and double ``c_estimates`` ticks);
- ``merge_from`` called ``dma_fetch_add`` directly on the target region,
  bypassing the fabric and NIC so ``total_adds()`` and the health
  reconciliation never saw merges;
- zero-amount adds crafted and sent FETCH_ADD frames that added nothing,
  burning PSNs and inflating ``c_adds``.
"""

import pytest

from repro.collector.counters import CounterStore
from repro.obs.health import PipelineHealth

from .rigs import fresh_registry


class TestHeavyHittersSingleEstimate:
    def test_one_estimate_per_candidate(self):
        """Regression: each candidate is estimated exactly once."""
        registry, restore = fresh_registry()
        try:
            store = CounterStore(cells_per_row=256, rows=2)
            for i in range(50):
                store.add(("flow", i % 10))
            candidates = [("flow", i) for i in range(10)]
            before = store.c_estimates.value
            hits = store.heavy_hitters(candidates, threshold=1)
            assert store.c_estimates.value - before == len(candidates)
            assert len(hits) == 10
            # Results are (key, estimate) sorted descending by estimate.
            estimates = [estimate for _key, estimate in hits]
            assert estimates == sorted(estimates, reverse=True)
        finally:
            restore()

    def test_reported_estimate_matches_estimate(self):
        store = CounterStore(cells_per_row=256, rows=2)
        store.add(("flow", 1), 9)
        [(key, estimate)] = store.heavy_hitters([("flow", 1)], threshold=5)
        assert estimate == store.estimate(key)


class TestZeroAmountShortCircuit:
    def test_zero_add_moves_nothing(self):
        store = CounterStore(cells_per_row=64, rows=2)
        psn_before = store.translator.psn
        store.add(("flow", 1), 0)
        assert store.c_adds.value == 0
        assert store.translator.psn == psn_before
        assert store.total_adds() == 0
        assert store.translator.craft_add_frames(("flow", 1), 0) == []

    def test_psn_and_c_adds_stay_consistent_through_mixed_batch(self):
        """PSNs advance exactly one per offered frame; c_adds one per
        counted key -- zeros contribute to neither."""
        store = CounterStore(cells_per_row=64, rows=2)
        items = [
            (("flow", 1), 2),
            (("flow", 2), 0),
            (("flow", 3), 1),
            (("flow", 4), 0),
        ]
        offered = store.add_many(items)
        assert offered == 4  # 2 non-zero keys x 2 rows
        assert store.translator.psn == offered
        assert store.c_adds.value == 2
        assert store.total_adds() == offered
        # Scalar path agrees.
        store.add(("flow", 5), 0)
        store.add(("flow", 6), 1)
        assert store.translator.psn == offered + store.rows
        assert store.c_adds.value == 3

    def test_negative_amount_rejected_without_side_effects(self):
        """An addend FETCH_ADD cannot carry is a ``ValueError`` on both
        paths before anything moves (``1 << 64`` used to burn a PSN on
        ``add`` and raise ``OverflowError`` from ``add_many``)."""
        store = CounterStore(cells_per_row=64, rows=2)
        for amount in (-1, -5, 1 << 64):
            with pytest.raises(ValueError):
                store.add(("flow", 1), amount)
            with pytest.raises(ValueError):
                store.add_many([(("flow", 2), 1), (("flow", 1), amount)])
        assert store.c_adds.value == 0
        assert store.translator.psn == 0
        assert store.fabric.counters.frames_offered == 0
        store.add(("flow", 1), (1 << 64) - 1)
        assert store.estimate(("flow", 1)) == (1 << 64) - 1


class TestMergeOnTheWire:
    def test_merge_counts_as_nic_traffic(self):
        """Regression: merge_from used to bypass the fabric and NIC."""
        registry, restore = fresh_registry()
        try:
            a = CounterStore(cells_per_row=64, rows=2)
            b = CounterStore(cells_per_row=64, rows=2)
            for i in range(10):
                b.add(("flow", i), 3)
            nonzero = int((b.cell_matrix() != 0).sum())
            adds_before = a.total_adds()
            a.merge_from(b)
            # One NIC-executed FETCH_ADD per non-zero source cell.
            assert a.total_adds() - adds_before == nonzero
            assert a.nic.counters.atomics_executed == nonzero
            health = PipelineHealth.from_registry(registry)
            assert health.atomic_bypass_delta == 0
            assert health.mem_atomics == health.nic_atomics_executed
        finally:
            restore()

    def test_merged_estimates_match_union(self):
        a = CounterStore(cells_per_row=128, rows=2)
        b = CounterStore(cells_per_row=128, rows=2)
        union = CounterStore(cells_per_row=128, rows=2)
        for i in range(60):
            key, amount = ("flow", i % 12), 1 + i % 3
            (a if i % 2 else b).add(key, amount)
            union.add(key, amount)
        a.merge_from(b)
        for i in range(12):
            assert a.estimate(("flow", i)) == union.estimate(("flow", i))

    def test_merge_metrics_count_cells(self):
        registry, restore = fresh_registry()
        try:
            a = CounterStore(cells_per_row=64, rows=1)
            b = CounterStore(cells_per_row=64, rows=1)
            b.add(("flow", 1), 5)
            b.add(("flow", 2), 5)
            a.merge_from(b)
            merger = a.merger()
            assert merger.c_merges.value == 1
            assert merger.c_merge_cells.value == int(
                (b.cell_matrix() != 0).sum()
            )
        finally:
            restore()
