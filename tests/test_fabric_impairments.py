"""Property tests: impaired delivery is absorbed by NIC validation.

:class:`~repro.fabric.ImpairedFabric` drops, duplicates and reorders real
RoCEv2 frames in front of the NIC model.  The properties enforced here are
the paper's resilience claims made mechanical:

- accounting is exact: every offered frame is either dropped by the
  impairment or handed to the inner fabric, whose delivery counters
  reconcile with the NICs' ``frames_received`` -- nothing vanishes
  silently between a sender and the endpoint;
- duplicates are idempotent: the NIC's PSN stale-window check drops the
  second copy, leaving memory bit-identical to an unimpaired run;
- reordered and lost frames are dropped *by the NIC or the impairment*,
  never half-applied: every nonzero slot holds a payload some report
  actually offered.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import ReportBatch
from repro.core.config import DartConfig
from repro.core.reporter import DartReporter
from repro.collector.store import DartStore
from repro.fabric import BufferedFabric, ImpairedFabric, InlineFabric

from .rigs import Tap, fresh_obs


def make_store(impaired_fabric):
    config = DartConfig(slots_per_collector=1 << 10, num_collectors=2, seed=9)
    return DartStore(config, packet_level=True, fabric=impaired_fabric), config


def workload(n):
    return [(("flow", i % 12), (i % 97).to_bytes(20, "big")) for i in range(n)]


def offered_payloads(config, items):
    """Every slot payload any frame in the workload could have written."""
    reporter = DartReporter(config)
    return {
        write.payload
        for key, value in items
        for write in reporter.writes_for(key, value)
    }


def nonzero_slots(store, config):
    """All nonzero slot contents across the fleet, at slot granularity."""
    slot_bytes = config.slot_bytes
    empty = b"\x00" * slot_bytes
    slots = []
    for collector in store.cluster:
        snapshot = collector.region.snapshot()
        for offset in range(0, len(snapshot), slot_bytes):
            slot = snapshot[offset : offset + slot_bytes]
            if slot != empty:
                slots.append(slot)
    return slots


@settings(max_examples=25, deadline=None)
@given(
    loss=st.floats(min_value=0.0, max_value=0.6),
    duplication=st.floats(min_value=0.0, max_value=0.6),
    reordering=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**16),
    reports=st.integers(min_value=1, max_value=60),
)
def test_accounting_reconciles(loss, duplication, reordering, seed, reports):
    """offered == lost + handed-on; inner delivery == NIC receipts."""
    inner = InlineFabric()
    impaired = ImpairedFabric(
        inner, loss=loss, duplication=duplication, reordering=reordering,
        seed=seed,
    )
    store, _config = make_store(impaired)
    for key, value in workload(reports):
        store.put(key, value)
    store.fabric.flush()  # release any held (reordered) frames

    offered = impaired.counters.frames_offered
    dropped = impaired.counters.frames_dropped_loss
    duplicated = impaired.counters.frames_duplicated
    # Conservation at the impairment layer: every offered frame was either
    # dropped or handed to the inner fabric, plus injected duplicates.
    assert inner.counters.frames_offered == offered - dropped + duplicated
    # Conservation at the delivery layer.
    assert inner.counters.frames_delivered == inner.counters.frames_offered
    assert (
        inner.counters.frames_delivered
        == inner.counters.frames_executed + inner.counters.frames_rejected
    )
    # Everything the inner fabric delivered, a NIC received.
    received = sum(c.nic.counters.frames_received for c in store.cluster)
    assert received == inner.counters.frames_delivered
    # NIC-level conservation: received == executed + dropped.
    executed = sum(
        c.nic.counters.writes_executed
        + c.nic.counters.atomics_executed
        + c.nic.counters.reads_executed
        for c in store.cluster
    )
    nic_dropped = sum(c.nic.counters.frames_dropped for c in store.cluster)
    assert received == executed + nic_dropped
    assert impaired.pending() == 0


@settings(max_examples=25, deadline=None)
@given(
    duplication=st.floats(min_value=0.1, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
    reports=st.integers(min_value=1, max_value=50),
)
def test_duplicates_are_idempotent(duplication, seed, reports):
    """PSN checks drop duplicate WRITEs: memory equals an unimpaired run."""
    clean_store, _ = make_store(InlineFabric())
    inner = InlineFabric()
    impaired = ImpairedFabric(inner, duplication=duplication, seed=seed)
    dup_store, _config = make_store(impaired)

    for key, value in workload(reports):
        clean_store.put(key, value)
        dup_store.put(key, value)

    # Exact accounting: each duplication draw injects one extra inner
    # delivery (a probabilistic "at least one duplicate fired" assertion
    # is flaky at small counts -- all draws can legitimately miss).
    assert (
        impaired.delivered.frames_delivered
        == impaired.counters.frames_offered
        + impaired.counters.frames_duplicated
    )
    for clean, dup in zip(clean_store.cluster, dup_store.cluster):
        assert clean.region.snapshot() == dup.region.snapshot()
        # Every duplicate was dropped by the PSN stale-window check.
        assert (
            dup.nic.counters.writes_executed
            == clean.nic.counters.writes_executed
        )
    dropped_psn = sum(c.nic.counters.dropped_psn for c in dup_store.cluster)
    assert dropped_psn == impaired.counters.frames_duplicated


@settings(max_examples=25, deadline=None)
@given(
    loss=st.floats(min_value=0.0, max_value=0.5),
    reordering=st.floats(min_value=0.0, max_value=0.5),
    duplication=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**16),
    reports=st.integers(min_value=1, max_value=60),
)
def test_slots_only_hold_offered_payloads(
    loss, reordering, duplication, seed, reports
):
    """Impairments never corrupt memory: slots hold real payloads or zeros."""
    impaired = ImpairedFabric(
        InlineFabric(), loss=loss, reordering=reordering,
        duplication=duplication, seed=seed,
    )
    store, config = make_store(impaired)
    items = workload(reports)
    for key, value in items:
        store.put(key, value)
    store.fabric.flush()
    allowed = offered_payloads(config, items)
    for slot in nonzero_slots(store, config):
        assert slot in allowed


@settings(max_examples=20, deadline=None)
@given(
    reordering=st.floats(min_value=0.2, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_reordered_frames_drop_via_psn_not_memory(reordering, seed):
    """An overtaken frame lands behind the expected PSN and is dropped.

    The default RESYNC_ON_GAP policy accepts the newer frame (forward gap)
    and then rejects the held, older one as stale -- so reordering costs
    redundancy copies, never consistency.
    """
    impaired = ImpairedFabric(InlineFabric(), reordering=reordering, seed=seed)
    store, config = make_store(impaired)
    items = workload(40)
    for key, value in items:
        store.put(key, value)
    store.fabric.flush()
    reordered = impaired.counters.frames_reordered
    if reordered == 0:
        return  # RNG never tripped; nothing to assert
    dropped_psn = sum(c.nic.counters.dropped_psn for c in store.cluster)
    # Every *overtaken* frame is PSN-stale.  A frame still held when the
    # workload ends is released by flush() in order and executes normally
    # -- at most one per endpoint.
    assert reordered - len(store.cluster) <= dropped_psn <= reordered
    # Memory stays consistent: only offered payloads present.
    allowed = offered_payloads(config, items)
    for slot in nonzero_slots(store, config):
        assert slot in allowed


def test_seeded_impairments_are_deterministic():
    """Same seed, same workload -> identical counters and memory."""

    def run():
        impaired = ImpairedFabric(
            InlineFabric(), loss=0.2, duplication=0.2, reordering=0.2, seed=7
        )
        store, _config = make_store(impaired)
        for key, value in workload(80):
            store.put(key, value)
        store.fabric.flush()
        snapshots = [c.region.snapshot() for c in store.cluster]
        return impaired.counters, snapshots

    counters_a, snaps_a = run()
    counters_b, snaps_b = run()
    assert counters_a == counters_b
    assert snaps_a == snaps_b


def test_impaired_over_buffered_inner():
    """Impairments compose with a deferring inner transport."""
    inner = BufferedFabric(flush_threshold=None)
    impaired = ImpairedFabric(inner, loss=0.3, seed=3)
    store, config = make_store(impaired)
    items = workload(50)
    for key, value in items:
        store.put(key, value)
    assert inner.pending() > 0
    impaired.flush()
    assert impaired.pending() == 0
    offered = impaired.counters.frames_offered
    lost = impaired.counters.frames_dropped_loss
    assert inner.counters.frames_delivered == offered - lost
    received = sum(c.nic.counters.frames_received for c in store.cluster)
    assert received == inner.counters.frames_delivered


@pytest.mark.parametrize(
    "make_fabric",
    [
        lambda: ImpairedFabric(InlineFabric(), loss=0.4, reordering=0.4, seed=1),
        InlineFabric,
        lambda: BufferedFabric(flush_threshold=8),
        lambda: ImpairedFabric(InlineFabric(), loss=0.4, seed=2),
        lambda: ImpairedFabric(InlineFabric(), reordering=0.5, seed=3),
        lambda: ImpairedFabric(InlineFabric(), loss=1.0),
        lambda: ImpairedFabric(BufferedFabric(flush_threshold=8), loss=0.3, reordering=0.3, seed=4),
        lambda: ImpairedFabric(InlineFabric(), loss=0.2, duplication=0.5, seed=5),
    ],
    ids=["lossy+reordering", "inline", "buffered", "lossy", "reordering", "all-lost",
         "impaired-over-buffered", "lossy+duplicating"],
)
def test_put_returns_the_frames_not_lost(make_fabric):
    """``put`` counts the frames the fabric did not report lost: offered
    minus that put's loss drops, held (reordered) or queued frames
    included -- also on puts whose frames are both dropped and held."""
    config = DartConfig(slots_per_collector=1 << 10, num_collectors=2, redundancy=4, seed=9)
    fabric = make_fabric()
    store = DartStore(config, packet_level=True, fabric=fabric)
    counters = fabric.counters
    for key, value in workload(200):
        lost = counters.frames_dropped_loss
        written = store.put(key, value)
        assert written == config.redundancy - (counters.frames_dropped_loss - lost)


# ----------------------------------------------------------------------
# A lossy batch stays a batch, fabric to queue pair
# ----------------------------------------------------------------------

ENDPOINTS = 4
ITEMS = [(("flow", i), b"value-%03d" % i) for i in range(256)]


def tapped_store(**impairments):
    """A 4-collector store over an impaired inline fabric, every port tapped."""
    config = DartConfig(slots_per_collector=1 << 10, num_collectors=ENDPOINTS, redundancy=2, seed=3)
    fabric = ImpairedFabric(InlineFabric(), **impairments)
    store = DartStore(config, packet_level=True, fabric=fabric)
    taps = {}
    for endpoint_id in fabric.endpoint_ids():
        taps[endpoint_id] = Tap(fabric.port(endpoint_id))
        fabric.rebind(endpoint_id, taps[endpoint_id])
    return store, fabric, taps


class TestOneIngestPerEndpoint:
    def test_impaired_batch_reaches_each_port_once(self):
        store, fabric, taps = tapped_store(loss=0.02, duplication=0.01, reordering=0.01, seed=7)
        counters = fabric.counters
        assert store._switch.report_batch_into(ITEMS) == 512 - counters.frames_dropped_loss
        assert counters.frames_dropped_loss and counters.frames_duplicated
        assert counters.frames_reordered
        assert [tap.batches for tap in taps.values()] == [1] * ENDPOINTS
        assert sum(len(tap.requests) for tap in taps.values()) == fabric.delivered.frames_delivered

    def test_a_frame_carried_in_costs_one_more_call(self):
        store, fabric, taps = tapped_store(loss=0.02, duplication=0.01, reordering=0.3, seed=7)
        carried = 0
        while len(fabric._held) < 2:
            store.put(*ITEMS[carried])
            carried += 1
        held = len(fabric._held)
        before = {endpoint: len(tap.requests) for endpoint, tap in taps.items()}
        store._switch.report_batch_into(ITEMS[carried:])
        for endpoint, tap in taps.items():
            assert 1 <= tap.batches <= 1 + held
            assert len(tap.requests) > before[endpoint]

    def test_unimpaired_batch_passes_through_uncopied(self):
        store, fabric, taps = tapped_store(seed=7)
        pool = store._switch.frame_pool
        store._switch.report_batch_into(ITEMS)
        passed = pool.allocations + pool.reuses
        clean = DartStore(store.config, packet_level=True, fabric=InlineFabric())
        clean._switch.report_batch_into(ITEMS)
        clean_pool = clean._switch.frame_pool
        assert passed == clean_pool.allocations + clean_pool.reuses
        assert pool.in_flight == 0


class TestReturnContract:
    """Each row counted as ``send`` counts its frame: executed now, or held
    or queued in flight; a lost row never counts."""

    def offer(self, inner=InlineFabric, **impairments):
        config = DartConfig(slots_per_collector=1 << 10, num_collectors=2, seed=3)
        fabric = ImpairedFabric(inner(), **impairments)
        store = DartStore(config, packet_level=True, fabric=fabric)
        switch = store._switch
        batch = switch.encode_batch(ReportBatch.from_items(switch.addressing, ITEMS))
        return fabric, fabric.send_batch(batch)

    @pytest.mark.parametrize("inner, impairments", [
        (InlineFabric, dict(loss=0.2)), (InlineFabric, dict(duplication=0.2)),
        (InlineFabric, dict(reordering=0.2)),
        (InlineFabric, dict(loss=0.2, duplication=0.1, reordering=0.2)),
        (lambda: BufferedFabric(None), dict(loss=0.2)),
    ], ids=["loss", "duplication", "reordering", "all_three", "buffered_loss"])
    def test_held_queued_and_duplicated_rows_count_once(self, inner, impairments):
        fabric, counted = self.offer(inner, seed=1, **impairments)
        assert counted == 512 - fabric.counters.frames_dropped_loss

    def test_everything_lost_returns_zero(self):
        fabric, executed = self.offer(loss=1.0)
        assert executed == 0 and fabric.delivered.frames_offered == 0


class TestBatchTrace:
    @pytest.mark.parametrize("loss", [0.1, 1.0])
    def test_one_impair_span_and_one_terminal_span(self, loss):
        """However many rows are impaired and however many endpoints the
        survivors fan out to, the batch's shared context finishes once."""
        _registry, tracer, restore = fresh_obs()
        try:
            store, fabric, _taps = tapped_store(
                loss=loss, duplication=0.05, reordering=0.05, seed=7
            )
            store._switch.report_batch_into(ITEMS)
            assert tracer.bindings_live == 0
            (record,) = tracer.traces()
            assert record.stages.count("fabric.impair") == 1
            assert record.stages.count("fabric.deliver") == 1
            assert record.stages[-1] == "fabric.deliver"
            # The terminal span is the inner delivery's unless nothing
            # survived to be delivered.
            assert ("rows=0 " in record.spans[-1].detail) == (loss == 1.0)
        finally:
            restore()
