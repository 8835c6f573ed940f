"""Byte-equivalence suite for columnar one-sided READs.

``OneSidedReader.read_run`` sends runs of ``COLUMNAR_MIN_READS`` or more
as one request matrix and gets one response matrix back; shorter runs stay
on the pipelined scalar body.  Every test here pins the contract that
makes the batch path safe: *identical request bytes, response bytes (MSN
sequence included), payload matrices, answered masks and counters* to the
scalar reference, over
every fabric, with the same drop taxonomy and no leaked pool lease.

The reference for pipelined runs is ``read_run``'s own scalar body (forced
by raising the size cut), because only it draws an impaired fabric's RNG
in the same order -- a loop of single ``read`` calls polls between frames,
so a held frame is released before the next draw.  Looped ``read`` is the
second reference wherever draw order cannot differ (no reordering).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.primitives.clients as clients
from repro import obs
from repro.collector.collector import CollectorCluster
from repro.control.shards import shard_map_of
from repro.core.client import DartQueryClient
from repro.core.config import DartConfig
from repro.core.policies import ReturnPolicy
from repro.fabric import BufferedFabric, ImpairedFabric, InlineFabric
from repro.primitives.clients import COLUMNAR_MIN_READS, OneSidedReader
from repro.primitives.translator import ReadResponseRows, ResponseDemux
from repro.query.backend import FanoutBackend
from repro.rdma.frames import FrameBatch, icrc_rows, write_be32, write_be64, write_le32
from repro.rdma.packets import AtomicEth, Bth, Opcode, Reth, RoceV2Packet
from repro.rdma.qp import PSN_MODULUS, PsnPolicy, QueuePair

from .test_columnar_batch import impairment_state

SLOTS = 256
READER_QP = 0xC00

FABRICS = {
    "inline": InlineFabric,
    "buffered_5": lambda: BufferedFabric(flush_threshold=5),
    "impaired_inline": lambda: ImpairedFabric(
        InlineFabric(), loss=0.1, duplication=0.1, reordering=0.15, seed=23
    ),
    "impaired_buffered": lambda: ImpairedFabric(
        BufferedFabric(flush_threshold=5),
        loss=0.1, duplication=0.1, reordering=0.15, seed=41,
    ),
}


class Tap:
    """A fabric port that records every byte crossing it, both ways."""

    def __init__(self, port):
        self.port = port
        self.requests = []
        self.responses = []
        self.batches = 0

    def receive_frame(self, frame):
        self.requests.append(frame)
        return self.port.receive_frame(frame)

    def ingest_batch(self, batch):
        self.batches += 1
        self.requests.extend(row.tobytes() for row in batch.frames)
        return self.port.ingest_batch(batch)

    def transmit(self):
        out = self.port.transmit()
        for entry in out:
            if isinstance(entry, FrameBatch):
                self.responses.extend(row.tobytes() for row in entry.frames)
            else:
                self.responses.append(entry)
        return out


class Rig:
    """One collector behind a tapped fabric, read by one reader."""

    def __init__(self, fabric, start_psn=0):
        self.config = DartConfig(slots_per_collector=SLOTS, num_collectors=1, seed=5)
        self.fabric = fabric
        self.cluster = CollectorCluster(self.config)
        self.node = self.cluster.node(0)
        image = np.random.default_rng(9).integers(
            1, 256, size=self.config.region_bytes, dtype=np.uint8
        )
        self.node.region.restore(image.tobytes())
        self.tap = Tap(self.node)
        fabric.attach(0, self.tap)
        self.reader = OneSidedReader(
            fabric, 0, self.node.nic, READER_QP, ResponseDemux(),
            self.node.region.rkey,
        )
        self.reader._psn = start_psn

    def address(self, slot):
        return self.node.region.base_address + slot * self.config.slot_bytes

    def state(self):
        """Everything the two paths must agree on after a run."""
        delivered = (
            self.fabric.delivered if isinstance(self.fabric, ImpairedFabric)
            else self.fabric.counters
        )
        return {
            "requests": self.tap.requests,
            "responses": self.tap.responses,
            "nic": {n: getattr(self.node.nic.counters, n)
                    for n, *_ in self.node.nic.counters.FIELDS},
            "offered": frame_accounting(self.fabric.counters),
            "delivered": frame_accounting(delivered),
            "msn": self.reader.qp.msn,
            "psn": self.reader._psn,
            "impairment": impairment_state(self.fabric),
        }


def frame_accounting(counters):
    """Fabric counters minus ``flushes`` (a batch crosses a buffered
    threshold once, its frames one by one; every per-frame series must
    still agree)."""
    return {n: getattr(counters, n) for n, *_ in counters.FIELDS if n != "flushes"}


def read(rig, slots, length):
    """One ``read_run`` of ``slots``: its payload matrix and answered mask, as lists."""
    payloads, answered = rig.reader.read_run([rig.address(s) for s in slots], length)
    assert payloads.dtype == np.uint8 and payloads.shape == (len(slots), length)
    assert answered.dtype == bool and not payloads[~answered].any()
    return payloads.tolist(), answered.tolist()


def run_both(monkeypatch, factory, runs, length, start_psn=0):
    """The same runs through the scalar body and the batch path."""
    results = {}
    for path, cut in (("scalar", 1 << 30), ("columnar", 1)):
        monkeypatch.setattr(clients, "COLUMNAR_MIN_READS", cut)
        rig = Rig(factory(), start_psn)
        payloads = [read(rig, slots, length) for slots in runs]
        assert rig.reader._pool.in_flight == 0
        assert (rig.tap.batches > 0) == (path == "columnar")
        results[path] = (payloads, rig.state())
    return results["scalar"], results["columnar"]


class TestReadRunEquivalence:
    @pytest.mark.parametrize("name", list(FABRICS))
    def test_runs_match_scalar_body(self, monkeypatch, name):
        """Repeats, both sides of the size cut, several runs per QP."""
        runs = [
            [3], [7, 7], [1, 2, 3], list(range(COLUMNAR_MIN_READS)),
            [9, 9, 200, 9, 0, 255, 31, 31], list(range(0, 120, 3)),
        ]
        scalar, columnar = run_both(monkeypatch, FABRICS[name], runs, 24)
        assert scalar == columnar
        payloads, state = columnar
        assert state["nic"]["reads_executed"] == state["nic"]["responses_emitted"]
        if name in ("inline", "buffered_5"):
            rig = Rig(FABRICS[name]())
            for slots, (rows, answered) in zip(runs, payloads):
                assert all(answered)
                assert [bytes(row) for row in rows] == [
                    rig.node.region.dma_read(rig.address(s), 24) for s in slots
                ]
        else:
            assert not all(ok for _rows, answered in payloads for ok in answered)

    @pytest.mark.parametrize("name", ["inline", "buffered_5"])
    def test_run_matches_looped_scalar_read(self, monkeypatch, name):
        """Without reordering a loop of single READs is the same wire."""
        slots = [5, 5, 17, 250, 0, 99, 17]
        monkeypatch.setattr(clients, "COLUMNAR_MIN_READS", 1)
        columnar = Rig(FABRICS[name]())
        got = read(columnar, slots, 8)
        looped = Rig(FABRICS[name]())
        rows, answered = zip(*(read(looped, [s], 8) for s in slots))
        assert got == ([row for (row,) in rows], [ok for (ok,) in answered])
        left, right = looped.state(), columnar.state()
        assert left == right

    @pytest.mark.parametrize("name", ["impaired_inline", "impaired_buffered"])
    def test_run_overtakes_a_frame_held_by_an_earlier_send(self, monkeypatch, name):
        """A matrix run releases a frame a scalar ``send`` left held at
        the position the scalar body would."""
        states = []
        for cut in (1 << 30, 1):
            monkeypatch.setattr(clients, "COLUMNAR_MIN_READS", cut)
            rig = Rig(FABRICS[name]())
            strays = request_matrix(rig, range(40), qp=0x123456)
            sent = 0
            while not rig.fabric._held:
                rig.fabric.send(0, strays[sent].tobytes())
                sent += 1
            slots = list(range(0, 3 * COLUMNAR_MIN_READS * 4, 3))
            payloads = read(rig, slots, 24)
            assert rig.reader._pool.in_flight == 0
            states.append((sent, payloads, rig.state()))
        assert states[0] == states[1]
        assert states[1][2]["nic"]["dropped_unknown_qp"] > 0

    def test_psn_wraps_at_24_bits(self, monkeypatch):
        scalar, columnar = run_both(
            monkeypatch, InlineFabric, [list(range(9)), [4, 5]], 24,
            start_psn=PSN_MODULUS - 4,
        )
        assert scalar == columnar
        assert columnar[1]["psn"] == 7
        assert all(all(answered) for _rows, answered in columnar[0])

    @settings(max_examples=30, deadline=None)
    @given(
        runs=st.lists(
            st.lists(st.integers(0, SLOTS - 1), min_size=1, max_size=24),
            min_size=1, max_size=4,
        ),
        length=st.sampled_from([8, 24, 1]),
        start=st.sampled_from([0, PSN_MODULUS - 3, 12345]),
        name=st.sampled_from(list(FABRICS)),
    )
    def test_random_runs(self, runs, length, start, name):
        with pytest.MonkeyPatch.context() as patch:
            scalar, columnar = run_both(patch, FABRICS[name], runs, length, start)
        assert scalar == columnar

    def test_size_cut_selects_the_path(self):
        rig = Rig(InlineFabric())
        short = list(range(COLUMNAR_MIN_READS - 1))
        assert all(read(rig, short, 24)[1])
        assert rig.tap.batches == 0
        assert all(read(rig, short + [9], 24)[1])
        assert rig.tap.batches == 1

    def test_dead_collector_answers_nothing(self, monkeypatch):
        for cut in (1 << 30, 1):
            monkeypatch.setattr(clients, "COLUMNAR_MIN_READS", cut)
            rig = Rig(InlineFabric())
            rig.node.fail()
            assert read(rig, range(5), 24) == ([[0] * 24] * 5, [False] * 5)
            assert rig.node.nic.counters.frames_received == 0
            assert rig.fabric.counters.frames_rejected == 5
            assert rig.reader._pool.in_flight == 0


def request_matrix(rig, slots, length=24, qp=READER_QP, rkey=None):
    """Scalar-packed READ requests as one matrix (PSNs 0..n-1)."""
    rkey = rig.node.region.rkey if rkey is None else rkey
    frames = [
        RoceV2Packet(
            bth=Bth(opcode=int(Opcode.RC_RDMA_READ_REQUEST), dest_qp=qp, psn=psn),
            reth=Reth(virtual_address=rig.address(slot), rkey=rkey, dma_length=length),
        ).pack()
        for psn, slot in enumerate(slots)
    ]
    return np.frombuffer(b"".join(frames), dtype=np.uint8).reshape(len(frames), -1).copy()


def reseal(matrix):
    write_le32(matrix, matrix.shape[1] - 4, icrc_rows(matrix))


def ingest_both(matrix, prepare=lambda rig: None, vectorised=True):
    """One matrix through ``ingest_batch`` and row by row; both states.

    ``vectorised`` says whether the batch must take the READ branch or
    fall back to the scalar reference.
    """
    states = []
    for columnar in (False, True):
        rig = Rig(InlineFabric())
        prepare(rig)
        nic = rig.node.nic
        if columnar:
            branch_calls = []
            branch = nic._ingest_read_batch
            nic._ingest_read_batch = lambda *args: branch_calls.append(1) or branch(*args)
            executed = nic.ingest_batch(
                FrameBatch(matrix.copy(), np.zeros(len(matrix), dtype=np.int64))
            )
            assert bool(branch_calls) == vectorised
        else:
            executed = sum(nic.receive_frame(row.tobytes()) for row in matrix)
        rig.tap.transmit()
        states.append((executed, rig.state()))
    assert states[0] == states[1]
    return states[1][1]["nic"]


class TestReadBatchDropTaxonomy:
    def test_each_drop_reason_lands_in_the_scalar_counter(self):
        rig = Rig(InlineFabric())
        matrix = request_matrix(rig, range(12))
        # VA below, above and wrapping past the region.
        write_be64(matrix[4:7], 54, np.array(
            [rig.address(0) - 8, rig.address(SLOTS) - 8, (1 << 64) - 4],
            dtype=np.uint64,
        ))
        reseal(matrix)
        matrix[1, 60] ^= 0xFF  # VA byte flipped after sealing: iCRC fails
        nic = ingest_both(matrix)
        assert nic["dropped_decode"] == 1
        assert nic["dropped_access"] == 3
        assert nic["reads_executed"] == nic["responses_emitted"] == 8
        # The rkey is uniform across a vectorised batch: one wrong rkey
        # denies every row, and a row whose rkey differs falls back.
        write_be32(matrix, 62, np.full(12, 0xBAD, dtype=np.uint32))
        reseal(matrix)
        assert ingest_both(matrix)["dropped_access"] == 12
        write_be32(matrix[3:], 62, np.full(9, rig.node.region.rkey, dtype=np.uint32))
        reseal(matrix)
        nic = ingest_both(matrix, vectorised=False)
        assert nic["dropped_access"] == 6 and nic["reads_executed"] == 6

    def test_unknown_qp(self):
        nic = ingest_both(request_matrix(Rig(InlineFabric()), range(6), qp=0xABCDEF))
        assert nic["dropped_unknown_qp"] == 6 and nic["reads_executed"] == 0

    def test_psn_drops_on_a_sequenced_qp(self):
        def add_qp(rig):
            rig.node.nic.create_queue_pair(
                QueuePair(qp_number=0x77, policy=PsnPolicy.RESYNC_ON_GAP)
            )

        matrix = request_matrix(Rig(InlineFabric()), range(8), qp=0x77)
        matrix = matrix[[0, 1, 2, 1, 3, 6, 4, 7]]  # a replay, a gap, a stale row
        nic = ingest_both(matrix, add_qp)
        assert nic["dropped_psn"] == 2 and nic["reads_executed"] == 6

    def test_oversized_read_is_refused(self):
        rig = Rig(InlineFabric())
        nic = ingest_both(request_matrix(rig, range(5), length=rig.config.region_bytes + 1))
        assert nic["dropped_access"] == 5

    def test_length_mismatch_across_rows_falls_back(self):
        rig = Rig(InlineFabric())
        matrix = request_matrix(rig, range(6))
        matrix[3] = request_matrix(rig, [3] * 4, length=8)[3]
        assert ingest_both(matrix, vectorised=False)["reads_executed"] == 6

    def test_mixed_opcodes_and_qps_fall_back(self):
        rig = Rig(InlineFabric())
        matrix = request_matrix(rig, range(6))
        write = RoceV2Packet(
            bth=Bth(opcode=int(Opcode.RC_RDMA_WRITE_ONLY), dest_qp=READER_QP, psn=2),
            reth=Reth(virtual_address=rig.address(2), rkey=rig.node.region.rkey),
        ).pack()
        matrix[2] = np.frombuffer(write, dtype=np.uint8)
        matrix[4] = request_matrix(rig, range(6), qp=0x123456)[4]
        nic = ingest_both(matrix, vectorised=False)
        assert nic["reads_executed"] == 4
        assert nic["writes_executed"] == 1 and nic["dropped_unknown_qp"] == 1


class StubFabric:
    """Hands ``ResponseDemux.poll`` a fixed response list."""

    def __init__(self, responses):
        self.responses = responses

    def poll(self, _endpoint_id):
        return self.responses


class TestDemuxDropsAreCounted:
    def test_corrupt_rows_drop_identically_on_both_decodes(self):
        rig = Rig(InlineFabric())
        matrix = request_matrix(rig, range(8))
        assert rig.node.nic.ingest_batch(
            FrameBatch(matrix, np.zeros(8, dtype=np.int64))
        ) == 8
        (responses,) = rig.node.nic.transmit()
        responses.frames[2, 60] ^= 0xFF  # payload byte: iCRC fails
        responses.frames[5, 37] ^= 0x01  # UDP dst port: not RoCEv2
        filed = {}
        for name, entries in (
            ("matrix", [responses]),
            ("frames", [row.tobytes() for row in responses.frames]),
        ):
            demux = ResponseDemux()
            assert demux.poll(StubFabric(entries), 0) == 6
            assert demux.c_dropped_decode.value == 2
            psns = []
            for entry in demux.take(READER_QP):
                if isinstance(entry, ReadResponseRows):
                    psns.extend(entry.psns.tolist())
                else:
                    psns.append(entry.psn)
            filed[name] = psns
        assert filed["matrix"] == filed["frames"] == [0, 1, 3, 4, 6, 7]


    def test_rows_the_mask_cannot_vouch_for_take_the_scalar_decode(self):
        """An intact ATOMIC ACK among 8-byte READ responses (same width,
        other opcode) is filed as a packet; hostile shapes only count."""
        rig = Rig(InlineFabric())
        nic = rig.node.nic
        nic.ingest_batch(FrameBatch(request_matrix(rig, range(4), length=8),
                                    np.zeros(4, dtype=np.int64)))
        (responses,) = nic.transmit()
        nic.queue_pair(READER_QP).respond_atomics = True
        fetch_add = RoceV2Packet(
            bth=Bth(opcode=int(Opcode.RC_FETCH_ADD), dest_qp=READER_QP, psn=9),
            atomic_eth=AtomicEth(virtual_address=rig.address(0), rkey=rig.node.region.rkey),
        )
        assert nic.receive_frame(fetch_add.pack())
        (ack,) = nic.transmit()
        responses.frames[1] = np.frombuffer(ack, dtype=np.uint8)
        demux = ResponseDemux()
        assert demux.poll(StubFabric([responses]), 0) == 4
        entries = demux.take(READER_QP)
        packets = [e for e in entries if not isinstance(e, ReadResponseRows)]
        assert [p.opcode for p in packets] == [int(Opcode.RC_ATOMIC_ACKNOWLEDGE)]
        assert sum(len(e.psns) for e in entries if isinstance(e, ReadResponseRows)) == 3
        for hostile in (np.zeros((3, 86), np.uint8), np.zeros((2, 20), np.uint8)):
            assert demux.poll(StubFabric([FrameBatch(hostile, np.zeros(len(hostile)))]), 0) == 0
        assert demux.c_dropped_decode.value == 5


def fresh_obs(**tracer_kwargs):
    previous_registry = obs.set_registry(obs.MetricsRegistry())
    tracer = obs.Tracer(**tracer_kwargs)  # after set_registry: its gauges land there
    previous_tracer = obs.set_tracer(tracer)

    def restore():
        obs.set_registry(previous_registry)
        obs.set_tracer(previous_tracer)

    return tracer, restore


class TestTracingParity:
    def traced_run(self, reads=12, **tracer_kwargs):
        tracer, restore = fresh_obs(**tracer_kwargs)
        try:
            rig = Rig(InlineFabric())
            trace_id = tracer.begin("query")
            with tracer.activate(trace_id):
                _rows, answered = read(rig, range(reads), 24)
            tracer.end(trace_id)
            assert all(answered)
            assert tracer.bindings_live == 0
            assert rig.reader._pool.in_flight == 0
            return tracer, tracer.trace(trace_id), rig
        finally:
            restore()

    def test_run_length_picks_span_granularity(self):
        """The same tracer: a run below the size cut keeps a span per
        frame, a run at or above it records one span per layer."""
        short = COLUMNAR_MIN_READS - 1
        _tracer, record, rig = self.traced_run(reads=short)
        assert rig.tap.batches == 0
        assert record.stages.count("query.read_run") == 1
        assert record.stages.count("nic.ingest") == short
        assert record.stages.count("fabric.deliver") == short
        _tracer, record, rig = self.traced_run(reads=COLUMNAR_MIN_READS)
        assert rig.tap.batches == 1
        assert record.stages == ("query.read_run", "nic.ingest", "fabric.deliver")

    def test_watching_does_not_steer_the_run(self):
        """Untraced, sampled out or traced, a long run is one matrix each
        way: same wire bytes, same counters, same call shapes."""
        states = {}
        for watcher, kwargs in (
            ("none", None), ("unsampled", {"sample_rate": 0.0}), ("default", {}),
        ):
            if kwargs is None:
                rig = Rig(InlineFabric())
                rig.reader.read_run([rig.address(s) for s in range(12)], 24)
            else:
                tracer, _record, rig = self.traced_run(**kwargs)
                assert (tracer.spans_recorded == 0) == (watcher == "unsampled")
            states[watcher] = dict(
                rig.state(), batches=rig.tap.batches, memory=rig.node.region.snapshot()
            )
        assert states["unsampled"] == states["none"] == states["default"]
        assert states["none"]["batches"] == 1

    def test_batch_tracer_records_one_span_per_layer(self):
        _tracer, record, rig = self.traced_run()
        assert rig.tap.batches == 1
        assert record.stages == ("query.read_run", "nic.ingest", "fabric.deliver")
        details = {span.stage: span.detail for span in record.spans}
        assert details["query.read_run"] == "reads=12 len=24"
        assert details["nic.ingest"] == "rows=12 executed=12"

    def test_unsampled_allocates_nothing(self):
        tracer, record, rig = self.traced_run(sample_rate=0.0)
        assert rig.tap.batches == 1
        assert record is obs.tracing.UNSAMPLED_TRACE and tracer.spans_recorded == 0


class TestFanoutBackend:
    def build(self, fabric):
        config = DartConfig(slots_per_collector=512, num_collectors=2, seed=11)
        cluster = CollectorCluster(config, num_standbys=1)
        cluster.attach_to(fabric)
        backend = FanoutBackend(config, cluster, fabric)
        keys = [f"flow-{i}" for i in range(80)]
        codec = config.slot_codec()
        for key in keys:
            resolved = backend.addressing.resolve(key)
            for node in (cluster.node(resolved.collector_id), cluster.node(2)):
                for slot in resolved.slot_indexes:
                    node.write_slot(slot, codec.encode(resolved.checksum, key.encode()[:20]))
        return config, cluster, backend, keys

    @pytest.mark.parametrize("name", list(FABRICS))
    def test_rows_match_direct_client_across_failover(self, name):
        """Long and short shard runs answer like the collector-side client,
        before and after the role's reader is rebound to a standby."""
        fabric = FABRICS[name]()
        config, cluster, backend, keys = self.build(fabric)
        direct = DartQueryClient(config, reader=cluster.read_slot)

        def check():
            shard_map = shard_map_of(cluster)
            for subset in (keys, keys[:3]):
                for role, (mine, resolved) in backend.shards_for(shard_map, subset).items():
                    rows = backend.keys_rows(
                        shard_map.assignment(role), mine, ReturnPolicy.PLURALITY, resolved
                    )
                    assert [row["value"] for row in rows] == [
                        direct.query(key, policy=ReturnPolicy.PLURALITY).value
                        for key in mine
                    ]

        check()
        before = backend._keys_reader(shard_map_of(cluster).assignment(0))
        cluster.node(0).fail()
        cluster.promote(0, 2)
        fabric.rebind(0, cluster.node(2))
        check()
        after = backend._keys_reader(shard_map_of(cluster).assignment(0))
        assert after is not before and after.qp.qp_number != before.qp.qp_number
        for reader in backend._keys_readers.values():
            assert reader._pool.in_flight == 0
