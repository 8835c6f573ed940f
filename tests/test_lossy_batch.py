"""A lossy batch stays a batch, fabric to queue pair.

``ImpairedFabric.send_batch`` turns its per-row loss / reorder / duplicate
draws into one delivery plan and hands the inner fabric one sub-batch, so
an endpoint sees one ``ingest_batch`` per call however many rows were
impaired -- plus one per frame carried in from an earlier call, which is
still bytes and is sent between the rows either side of it.  At the other
end ``QueuePair.accept_array`` judges the gapped, duplicated, swapped PSN
run that arrives as an array.  The byte / counter / RNG identity with the
per-frame path is ``tests/test_columnar_batch.py::TestStoreStateEquivalence``;
this module pins the call shapes, the return and trace contracts, and
``accept_array`` against looped ``accept``.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.collector.store import DartStore
from repro.core.batch import ReportBatch
from repro.core.config import DartConfig
from repro.fabric import BufferedFabric, ImpairedFabric, InlineFabric
from repro.rdma.qp import PSN_MODULUS, PsnPolicy, QueuePair

from .test_obs_tracing import _fresh_obs
from .test_read_columnar import Tap

ENDPOINTS = 4
ITEMS = [(("flow", i), b"value-%03d" % i) for i in range(256)]


def tapped_store(**impairments):
    """A 4-collector store over an impaired inline fabric, every port tapped."""
    config = DartConfig(
        slots_per_collector=1 << 10, num_collectors=ENDPOINTS, redundancy=2, seed=3
    )
    fabric = ImpairedFabric(InlineFabric(), **impairments)
    store = DartStore(config, packet_level=True, fabric=fabric)
    taps = {}
    for endpoint_id in fabric.endpoint_ids():
        taps[endpoint_id] = Tap(fabric.port(endpoint_id))
        fabric.rebind(endpoint_id, taps[endpoint_id])
    return store, fabric, taps


class TestOneIngestPerEndpoint:
    def test_impaired_batch_reaches_each_port_once(self):
        store, fabric, taps = tapped_store(
            loss=0.02, duplication=0.01, reordering=0.01, seed=7
        )
        counters = fabric.counters
        assert store._switch.report_batch_into(ITEMS) == 512 - counters.frames_dropped_loss
        assert counters.frames_dropped_loss and counters.frames_duplicated
        assert counters.frames_reordered
        assert [tap.batches for tap in taps.values()] == [1] * ENDPOINTS
        assert sum(len(tap.requests) for tap in taps.values()) == (
            fabric.delivered.frames_delivered
        )

    def test_a_frame_carried_in_costs_one_more_call(self):
        store, fabric, taps = tapped_store(
            loss=0.02, duplication=0.01, reordering=0.3, seed=7
        )
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

    @pytest.mark.parametrize("fabric, expected", [
        (InlineFabric, 400), (lambda: BufferedFabric(None), 400),
        (lambda: ImpairedFabric(InlineFabric(), loss=0.2, seed=3), 325),
        (lambda: ImpairedFabric(InlineFabric(), loss=0.2, duplication=0.1,
                                reordering=0.2, seed=3), 313),
    ], ids=["inline", "buffered", "loss", "loss_dup_reorder"])
    @pytest.mark.parametrize("policy", [PsnPolicy.RESYNC_ON_GAP, PsnPolicy.IGNORE])
    def test_put_many_returns_what_looped_put_returns(self, fabric, expected, policy):
        """Lost frames, and second copies run under ignored PSNs, count for no row."""
        config = DartConfig(slots_per_collector=1 << 10, num_collectors=2, seed=3)
        batched, looped = (DartStore(config, packet_level=True, fabric=fabric()) for _ in "ab")
        for node in (*batched.cluster, *looped.cluster):
            node.create_reporter_qp(0).policy = policy
        written = sum(looped.put(key, value) for key, value in ITEMS[:200])
        assert batched.put_many(ITEMS[:200]) == written == expected


class TestBatchTrace:
    @pytest.mark.parametrize("loss", [0.1, 1.0])
    def test_one_impair_span_and_one_terminal_span(self, loss):
        """However many rows are impaired and however many endpoints the
        survivors fan out to, the batch's shared context finishes once."""
        _registry, tracer, restore = _fresh_obs()
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


def looped_accept(qp, psns):
    return [qp.accept(psn) for psn in psns]


def arrival_order(draw, start, length):
    """PSNs ``start..`` as an impaired fabric might deliver them: rows
    lost, duplicated, swapped with a neighbour, or replayed from before."""
    psns = []
    for offset in range(length):
        psn = (start + offset) % PSN_MODULUS
        fate = draw(st.sampled_from(["ok", "ok", "ok", "lost", "dup", "swap", "stale"]))
        if fate == "lost":
            continue
        psns.append(psn)
        if fate == "dup":
            psns.append(psn)
        elif fate == "swap" and len(psns) > 1:
            psns[-1], psns[-2] = psns[-2], psns[-1]
        elif fate == "stale":
            psns.append((psn - draw(st.integers(1, 2 * length))) % PSN_MODULUS)
    return psns


class TestAcceptArray:
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        policy=st.sampled_from(list(PsnPolicy)),
        length=st.integers(0, 40),
        behind_wrap=st.integers(0, 80),
        expected_skew=st.integers(-3, 3),
    )
    def test_matches_looped_accept(
        self, data, policy, length, behind_wrap, expected_skew
    ):
        start = (PSN_MODULUS - behind_wrap) % PSN_MODULUS
        psns = arrival_order(data.draw, start, length)
        reference = QueuePair(
            qp_number=1,
            expected_psn=(start + expected_skew) % PSN_MODULUS,
            policy=policy,
        )
        vectorised = copy.copy(reference)
        mask = vectorised.accept_array(psns)
        assert mask.tolist() == looped_accept(reference, psns)
        assert vectorised == reference  # expected_psn, state and every counter

    def test_gapped_run_is_judged_without_the_scalar_machine(self, monkeypatch):
        qp = QueuePair(qp_number=1, expected_psn=PSN_MODULUS - 2)
        monkeypatch.setattr(
            QueuePair, "accept", lambda self, psn: pytest.fail("scalar fallback")
        )
        run = [PSN_MODULUS - 2, 0, PSN_MODULUS - 1, 0, 3, 4]  # gap, swap, dup, gap
        assert qp.accept_array(run).tolist() == [True, True, False, False, True, True]
        assert (qp.accepted, qp.gaps_observed, qp.duplicates_dropped) == (4, 2, 2)
        assert qp.expected_psn == 5

    def test_strict_gap_and_stale_start_keep_the_scalar_machine(self):
        strict = QueuePair(qp_number=1, policy=PsnPolicy.STRICT)
        assert strict.accept_array([0, 0, 1]).tolist() == [True, False, True]
        assert strict.accept_array([2, 4, 5]).tolist() == [True, False, False]
        assert strict.state.value == "error" and strict.gaps_observed == 1
        resync = QueuePair(qp_number=1, expected_psn=10)
        assert resync.accept_array([9, 10, 12]).tolist() == [False, True, True]
        assert (resync.duplicates_dropped, resync.gaps_observed) == (1, 1)
