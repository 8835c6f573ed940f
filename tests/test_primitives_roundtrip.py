"""End-to-end round trips of all three primitives over every fabric kind.

The same workloads run over inline, buffered and impaired transports;
exact-equality cases use a reorder-only impairment (no loss), and the
lossy cases check the measured outcome against the section-4-style
models in :mod:`repro.primitives.theory`.
"""

import numpy as np
import pytest

from repro import obs
from repro.fabric import BufferedFabric, ImpairedFabric, InlineFabric
from repro.obs.health import PipelineHealth
from repro.primitives import (
    AppendStore,
    CounterQueryClient,
    SketchStore,
    SwitchSketch,
    theory,
)
from repro.collector.counters import CounterStore


def _make_fabric(kind):
    if kind == "inline":
        return InlineFabric()
    if kind == "buffered":
        return BufferedFabric(flush_threshold=16)
    # Reorder-only: exercises the impairment layer without losing or
    # double-applying any FETCH_ADD, so exact equalities still hold.
    return ImpairedFabric(InlineFabric(), reordering=0.5, seed=5)


FABRICS = ["inline", "buffered", "impaired"]


@pytest.mark.parametrize("kind", FABRICS)
class TestRoundTrips:
    def test_append_round_trip(self, kind):
        store = AppendStore(capacity=32, record_bytes=8, fabric=_make_fabric(kind))
        writers = [store.register_writer(w) for w in range(2)]
        records = [b"k%d-%05d" % (i % 2, i) for i in range(20)]
        for i, record in enumerate(records):
            writers[i % 2].append(record)
        assert store.tail() == 20
        assert sorted(store.records()) == sorted(records)

    def test_key_increment_round_trip(self, kind):
        store = CounterStore(
            cells_per_row=1 << 10, rows=3, fabric=_make_fabric(kind)
        )
        truth = {}
        items = []
        for i in range(300):
            key = ("flow", i % 40)
            amount = 1 + i % 5
            truth[key] = truth.get(key, 0) + amount
            items.append((key, amount))
        store.add_many(items)
        for key, exact in truth.items():
            assert store.estimate(key) >= exact  # never undercounts
        assert store.total_count() == sum(truth.values())

    def test_sketch_merge_round_trip(self, kind):
        sketch = SwitchSketch(cells_per_row=256, rows=2)
        for i in range(100):
            sketch.update(("flow", i % 20), 1 + i % 3)
        store = SketchStore(cells_per_row=256, rows=2, fabric=_make_fabric(kind))
        store.merge_sketch(sketch)
        # Cell-wise identical to the switch-resident matrix.
        assert np.array_equal(store.cell_matrix(), sketch.cells)
        for i in range(20):
            key = ("flow", i)
            assert store.estimate(key) == sketch.estimate(key)


class TestSketchMergeEqualsLocal:
    def test_wire_merge_matches_direct_adds(self):
        """Merging two switch sketches over the wire equals counting the
        union stream directly -- cell for cell."""
        registry = obs.MetricsRegistry()
        previous = obs.set_registry(registry)
        try:
            shape = dict(cells_per_row=512, rows=2)
            site_a, site_b = SwitchSketch(**shape), SwitchSketch(**shape)
            combined = CounterStore(**shape)
            for i in range(200):
                key, amount = ("flow", i % 30), 1 + i % 4
                (site_a if i % 2 else site_b).update(key, amount)
                combined.add(key, amount)
            merged = SketchStore(**shape)
            merged.merge_sketch(site_a)
            merged.merge_sketch(site_b)
            assert np.array_equal(merged.cell_matrix(), combined.cell_matrix())
            # Both banks were fed exclusively through NIC-executed atomics.
            assert PipelineHealth.from_registry(registry).atomic_bypass_delta == 0
        finally:
            obs.set_registry(previous)


class TestTheoryChecks:
    def test_count_min_within_epsilon_delta(self):
        """Measured violation rate stays within the (epsilon, delta) bound."""
        store = CounterStore(cells_per_row=256, rows=3)
        epsilon, delta = store.error_bound()
        assert (epsilon, delta) == theory.count_min_bounds(256, 3)
        rng = np.random.default_rng(7)
        truth = {}
        items = []
        for key_id in rng.zipf(1.3, size=2000):
            key = ("flow", int(key_id) % 500)
            truth[key] = truth.get(key, 0) + 1
            items.append((key, 1))
        store.add_many(items)
        estimates = {key: store.estimate(key) for key in truth}
        rate = theory.count_min_violation_rate(
            truth, estimates, sum(truth.values()), epsilon
        )
        # delta = e^-3 ~ 0.0498; leave headroom for the single hash draw.
        assert rate <= 2 * delta

    def test_ring_recovery_matches_loss_model(self):
        """Readable records after loss + lapping track the closed form."""
        appends, capacity, loss = 400, 128, 0.2
        fabric = ImpairedFabric(InlineFabric(), loss=loss, seed=21)
        store = AppendStore(capacity=capacity, record_bytes=8, fabric=fabric)
        writer = store.register_writer(0)
        marker = b"\xAAREC"
        for i in range(appends):
            writer.append(marker + i.to_bytes(4, "big"))
        # A slot is readable only if it holds the record reserved for its
        # absolute index -- a lost WRITE leaves the previous lap's record
        # (or zeros), which the index check rejects.
        snapshot = store.recover()
        readable = sum(
            1
            for index, value in snapshot.records
            if value == marker + index.to_bytes(4, "big")
        )
        predicted = theory.expected_readable_records(appends, capacity, loss)
        # Binomial noise around capacity * (1 - loss): allow ~4 sigma.
        sigma = (capacity * loss * (1 - loss)) ** 0.5
        assert abs(readable - predicted) <= 4 * sigma
        assert theory.ring_overwritten_fraction(appends, capacity) == (
            (appends - capacity) / appends
        )

    def test_remote_estimates_match_local(self):
        store = CounterStore(cells_per_row=512, rows=2)
        store.add_many([(("flow", i % 25), 2) for i in range(100)])
        client = CounterQueryClient(store)
        for i in range(25):
            key = ("flow", i)
            assert client.estimate(key) == store.estimate(key)
