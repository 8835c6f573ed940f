"""Byte-equivalence suite for the columnar batch datapath.

The columnar datapath replaces per-report Python objects with one array
batch per layer: key folding (``fold_keys``), addressing
(``resolve_folded``), wire encoding (``DartSwitch.encode_batch``), fabric
transport (``send_batch``), NIC validation (``ingest_batch``) and region
landing (``write_offset_columnar``).  Every test here pins the contract
that makes that safe: *identical wire bytes and identical store state* to
the scalar reference path -- including PSN register evolution, drop
taxonomy and overwrite accounting, and including under impairment.
"""

import numpy as np
import pytest

from repro.core.addressing import COLLECTOR_FUNCTION_INDEX, DartAddressing
from repro.core.batch import ReportBatch
from repro.core.config import DartConfig
from repro.collector.counters import CounterStore
from repro.collector.store import DartStore
from repro.fabric import BufferedFabric, ImpairedFabric, InlineFabric
from repro.hashing.checksum import CHECKSUM_FUNCTION_INDEX
from repro.hashing.hash_family import fold_key, fold_keys
from repro.mem.region import MemoryRegion, RegionAccessError
from repro.query.fleet import QueryFleet
from repro.rdma.frames import icrc_rows, write_be64, write_le32
from repro.switch.dart_switch import DartSwitch


def small_config(**overrides):
    defaults = dict(slots_per_collector=1 << 10, num_collectors=3, seed=3)
    defaults.update(overrides)
    return DartConfig(**defaults)


def make_items(count, width=7):
    """Flow-tuple keyed items with varied value lengths (including empty)."""
    items = []
    for i in range(count):
        key = (f"10.0.{i >> 8 & 255}.{i & 255}", "10.9.9.9", 5000 + i, 80, 6)
        value = (b"val-%d!" % i)[: i % (width + 1)]
        items.append((key, value))
    return items


def region_snapshots(store):
    return [collector.region.snapshot() for collector in store.cluster]


def nic_counter_views(store):
    return [collector.nic.counters for collector in store.cluster]


def frame_accounting(counters):
    """Fabric counters minus ``flushes``: the per-frame conservation fields.

    Flush *cadence* legitimately differs between the paths -- a columnar
    enqueue crosses a buffered threshold once per batch where the scalar
    path crosses it once per frame -- but every per-frame series
    (offered/delivered/executed/rejected/lost/duplicated/reordered) must
    be identical.
    """
    return {
        name: getattr(counters, name)
        for name, *_ in counters.FIELDS
        if name != "flushes"
    }


class TestVectorisedPrimitives:
    def test_hash_folded_array_matches_scalar(self):
        config = small_config()
        family = config.hash_family()
        keys = [("flow", i, "x" * (i % 5)) for i in range(64)]
        folded = fold_keys(keys)
        assert folded.dtype == np.uint64
        for index in (0, 1, 5, COLLECTOR_FUNCTION_INDEX, CHECKSUM_FUNCTION_INDEX):
            vector = family.hash_folded_array(folded, index)
            scalar = [family.hash_folded(fold_key(key), index) for key in keys]
            assert vector.tolist() == scalar

    def test_resolve_folded_matches_scalar_resolve(self):
        config = small_config(redundancy=3)
        addressing = DartAddressing(config)
        keys = [("flow", i) for i in range(128)]
        collectors, checksums, slots = addressing.resolve_folded(
            fold_keys(keys)
        )
        assert slots.shape == (3, len(keys))
        for position, key in enumerate(keys):
            resolved = addressing.resolve(key)
            assert int(collectors[position]) == resolved.collector_id
            assert int(checksums[position]) == resolved.checksum
            assert (
                tuple(int(slots[n, position]) for n in range(3))
                == resolved.slot_indexes
            )

    def test_icrc_rows_matches_scalar_packed_trailers(self):
        """Row-vectorised iCRC equals the trailer the scalar packer wrote."""
        config = small_config(num_collectors=2)
        store = DartStore(config, packet_level=True, fabric=InlineFabric())
        frames = [
            frame
            for key, value in make_items(16)
            for _cid, frame in store._switch.report(key, value)
        ]
        matrix = np.frombuffer(b"".join(frames), dtype=np.uint8).reshape(
            len(frames), -1
        )
        computed = icrc_rows(matrix)
        trailers = np.ascontiguousarray(matrix[:, -4:]).view("<u4").ravel()
        assert np.array_equal(computed, trailers)


class TestReportBatch:
    def test_payload_rows_match_scalar_codec(self):
        config = small_config()
        addressing = DartAddressing(config)
        codec = config.slot_codec()
        items = make_items(50)
        batch = ReportBatch.from_items(addressing, items)
        assert batch.count == len(items)
        for position, (key, value) in enumerate(items):
            expected = codec.encode(addressing.checksum_of(key), value)
            assert batch.payloads[position].tobytes() == expected

    def test_oversized_value_raises_like_scalar_codec(self):
        config = small_config()
        addressing = DartAddressing(config)
        oversized = b"x" * (config.layout.value_bytes + 1)
        with pytest.raises(ValueError) as batch_error:
            ReportBatch.from_items(addressing, [(("flow", 1), oversized)])
        with pytest.raises(ValueError) as codec_error:
            config.slot_codec().encode(0, oversized)
        assert str(batch_error.value) == str(codec_error.value)

    def test_empty_batch(self):
        batch = ReportBatch.from_items(
            DartAddressing(small_config()), []
        )
        assert batch.count == 0
        assert batch.payloads.shape[0] == 0


class TestEncodeBatchWireEquality:
    def test_frames_and_psn_registers_identical_to_scalar(self):
        """Every columnar frame is byte-for-byte the scalar frame, in the
        scalar emission order, and PSN registers advance identically."""
        config = small_config(num_collectors=3, redundancy=2)
        scalar = DartStore(config, packet_level=True, fabric=InlineFabric())
        columnar = DartStore(config, packet_level=True, fabric=InlineFabric())
        items = make_items(120)

        expected = []
        for key, value in items:
            expected.extend(scalar._switch.report(key, value))

        switch = columnar._switch
        batch = switch.encode_batch(
            ReportBatch.from_items(switch.addressing, items)
        )
        try:
            assert batch.count == len(expected)
            for position, (collector_id, frame) in enumerate(expected):
                assert int(batch.endpoint_ids[position]) == collector_id
                assert batch.frame_bytes(position) == frame, (
                    f"frame {position} diverges from the scalar encoding"
                )
            for role in range(config.num_collectors):
                assert switch.psn_registers.read(role) == (
                    scalar._switch.psn_registers.read(role)
                )
        finally:
            batch.release()

    def test_missing_collector_entry_raises_like_scalar(self):
        config = small_config(num_collectors=2)
        fabric = InlineFabric()
        switch = DartSwitch(config, switch_id=0, fabric=fabric)
        scalar_switch = DartSwitch(config, switch_id=0, fabric=InlineFabric())
        # Find a key addressed to the (unprovisioned) collector 1.
        addressing = switch.addressing
        key = next(
            ("flow", i)
            for i in range(1000)
            if addressing.collector_of(("flow", i)) == 1
        )
        with pytest.raises(LookupError) as batch_error:
            switch.report_batch_into([(key, b"v")])
        with pytest.raises(LookupError) as scalar_error:
            scalar_switch.report(key, b"v")
        assert str(batch_error.value) == str(scalar_error.value)
        assert switch.counters.c_drops_no_entry.value == 1


FABRIC_FACTORIES = [
    ("inline", lambda: InlineFabric()),
    ("buffered_17", lambda: BufferedFabric(flush_threshold=17)),
    ("buffered_manual", lambda: BufferedFabric(flush_threshold=None)),
    ("impaired_loss", lambda: ImpairedFabric(InlineFabric(), loss=0.1, seed=11)),
    (
        "impaired_all_inline",
        lambda: ImpairedFabric(
            InlineFabric(),
            loss=0.05,
            duplication=0.08,
            reordering=0.15,
            seed=23,
        ),
    ),
    (
        "impaired_all_buffered",
        lambda: ImpairedFabric(
            BufferedFabric(flush_threshold=13),
            loss=0.05,
            duplication=0.08,
            reordering=0.15,
            seed=23,
        ),
    ),
    (
        "impaired_swap_heavy",
        lambda: ImpairedFabric(
            InlineFabric(),
            loss=0.1,
            duplication=0.2,
            reordering=0.5,
            seed=5,
        ),
    ),
]

#: The fabrics that can leave a frame held between calls.
HOLDING_FACTORIES = [
    (name, factory)
    for name, factory in FABRIC_FACTORIES
    if getattr(factory(), "reordering", 0.0)
]


def impairment_state(fabric):
    """What an impaired fabric carries into its next call: the frames it
    holds (in hold order) and where its draws stand."""
    if not isinstance(fabric, ImpairedFabric):
        return None
    return list(fabric._held.items()), fabric._rng.getstate()


class TestStoreStateEquivalence:
    @pytest.mark.parametrize("count", [150, 0])
    @pytest.mark.parametrize(
        "factory", [f for _name, f in FABRIC_FACTORIES],
        ids=[name for name, _f in FABRIC_FACTORIES],
    )
    def test_columnar_store_matches_scalar_store(self, factory, count):
        """Same workload, same fabric (same seeds): scalar and columnar
        stores end with identical region bytes, NIC counters, fabric counters
        (impairments draw the identical RNG sequence) and return values.
        An empty batch offers nothing and moves no frame counter."""
        config = small_config(num_collectors=3, slots_per_collector=512)
        items = make_items(count)

        scalar = DartStore(config, packet_level=True, fabric=factory())
        columnar = DartStore(config, packet_level=True, fabric=factory())
        written = sum(scalar.put(key, value) for key, value in items)
        assert columnar.put_many(items) == written
        self.assert_same_state(scalar, columnar)
        assert columnar.fabric.counters.frames_offered == len(items) * config.redundancy
        assert columnar.put_many([]) == 0
        self.assert_same_state(scalar, columnar)

    @pytest.mark.parametrize(
        "factory", [f for _name, f in HOLDING_FACTORIES],
        ids=[name for name, _f in HOLDING_FACTORIES],
    )
    def test_batch_overtakes_frames_held_by_earlier_sends(self, factory):
        """A frame a scalar ``send`` left held is released by the batch
        row that overtakes it, at the position ``send`` would have."""
        config = small_config(num_collectors=3, slots_per_collector=512)
        items = make_items(150)

        scalar = DartStore(config, packet_level=True, fabric=factory())
        columnar = DartStore(config, packet_level=True, fabric=factory())
        carried = 0
        while not columnar.fabric._held:
            for store in (scalar, columnar):
                store.put(*items[carried])
            carried += 1
        for key, value in items[carried:]:
            scalar.put(key, value)
        # Not ``put_many``: its closing flush would release what is held.
        columnar._switch.report_batch_into(items[carried:])
        assert impairment_state(scalar.fabric) == impairment_state(
            columnar.fabric
        )
        self.assert_same_state(scalar, columnar)

    @staticmethod
    def assert_same_state(scalar, columnar):
        scalar.fabric.flush()
        columnar.fabric.flush()
        assert impairment_state(scalar.fabric) == impairment_state(
            columnar.fabric
        )
        assert region_snapshots(scalar) == region_snapshots(columnar)
        for left, right in zip(
            nic_counter_views(scalar), nic_counter_views(columnar)
        ):
            assert left == right
        assert frame_accounting(scalar.fabric.counters) == frame_accounting(
            columnar.fabric.counters
        )
        if isinstance(scalar.fabric, ImpairedFabric):
            assert frame_accounting(
                scalar.fabric.delivered
            ) == frame_accounting(columnar.fabric.delivered)

    def test_columnar_store_queries_answer(self):
        config = small_config()
        store = DartStore(config, packet_level=True, fabric=InlineFabric())
        items = make_items(60)
        store.put_many(items)
        hits = sum(
            1
            for key, value in items
            if (store.get_value(key) or b"").startswith(value)
        )
        # Collisions can cost a few keys; the vast majority must answer.
        assert hits >= 55


def counter_samples(registry):
    """Every counter series in ``registry``, with its value."""
    return {
        series: value
        for series, (kind, value) in registry.snapshot().samples.items()
        if kind == "counter"
    }


def generator_put_many():
    """A packet-level ``put_many`` fed a generator rather than a list."""
    store = DartStore(small_config(), packet_level=True)
    return lambda items: store.put_many(iter(items))


#: Batched write surfaces, each built fresh: ``(name, () -> write)``.
EMPTY_BATCH_WRITERS = [
    ("store_in_process", lambda: DartStore(small_config()).put_many),
    (
        "store_packet_level",
        lambda: DartStore(small_config(), packet_level=True).put_many,
    ),
    ("store_packet_level_generator", lambda: generator_put_many()),
    (
        "switch_report_batch_into",
        lambda: DartStore(
            small_config(), packet_level=True
        )._switch.report_batch_into,
    ),
    ("fleet_put_many", lambda: QueryFleet(small_config()).put_many),
    ("fleet_count_many", lambda: QueryFleet(small_config()).count_many),
    ("fleet_sketch_many", lambda: QueryFleet(small_config()).sketch_many),
    (
        "counter_store_add_many",
        lambda: CounterStore(cells_per_row=1 << 10, rows=2).add_many,
    ),
]


class TestEmptyBatch:
    @pytest.mark.parametrize(
        "writer", [w for _name, w in EMPTY_BATCH_WRITERS],
        ids=[name for name, _w in EMPTY_BATCH_WRITERS],
    )
    def test_empty_batch_returns_zero_and_moves_no_counter(
        self, registry, writer
    ):
        """Every batched write surface takes ``[]``: it returns 0, and no
        counter series -- fabric, NIC, switch, store -- moves."""
        write = writer()
        before = counter_samples(registry)
        assert write([]) == 0
        assert counter_samples(registry) == before


class TestNicBatchValidationParity:
    def _encode_batch(self, store, items):
        switch = store._switch
        return switch.encode_batch(
            ReportBatch.from_items(switch.addressing, items)
        )

    def test_drop_taxonomy_matches_scalar_ingest(self):
        """Corrupted iCRC, unknown QP, stale PSN and out-of-bounds VA all
        land in the same NIC drop counters on both ingest paths."""
        config = small_config(num_collectors=1, slots_per_collector=256)
        items = make_items(24)
        scalar = DartStore(config, packet_level=True, fabric=InlineFabric())
        columnar = DartStore(config, packet_level=True, fabric=InlineFabric())

        batch = self._encode_batch(columnar, items)
        frames = batch.frames
        width = batch.width
        # Out-of-bounds virtual address on row 3 (region ends well below).
        write_be64(
            frames[3:4], 54, np.array([1 << 40], dtype=np.uint64)
        )
        # Unknown destination QP on row 5.
        frames[5, 47:50] = (0xAB, 0xCD, 0xEF)
        # Re-seal every frame, then corrupt row 1's payload *after* sealing
        # so its iCRC check fails.
        write_le32(frames, width - 4, icrc_rows(frames))
        frames[1, 70] ^= 0xFF
        # Stale PSN: replay row 0 at the end (same PSN a second time).
        order = np.concatenate(
            [np.arange(batch.count, dtype=np.int64), np.array([0])]
        )
        replay = batch.select(order)
        batch.release()

        receive_frame = scalar.cluster[0].nic.receive_frame
        executed_scalar = sum(
            receive_frame(replay.frame_bytes(i)) for i in range(replay.count)
        )
        executed_columnar = columnar.cluster[0].nic.ingest_batch(replay)
        replay.release()

        assert executed_scalar == executed_columnar
        left = scalar.cluster[0].nic.counters
        right = columnar.cluster[0].nic.counters
        assert left == right
        assert right.dropped_decode >= 1  # iCRC corruption
        assert right.dropped_unknown_qp >= 1
        assert right.dropped_psn >= 1  # the replayed frame
        assert right.dropped_access >= 1  # out-of-bounds VA
        assert (
            scalar.cluster[0].region.snapshot()
            == columnar.cluster[0].region.snapshot()
        )

    def test_address_wrapping_past_2_64_is_an_access_drop(self):
        """A VA a few bytes below 2**64 must not wrap back inside the
        region's bounds check (it used to, and the scatter then raised)."""
        config = small_config(num_collectors=1, slots_per_collector=256)
        columnar = DartStore(config, packet_level=True, fabric=InlineFabric())
        batch = self._encode_batch(columnar, make_items(4))
        write_be64(
            batch.frames[1:2], 54, np.array([(1 << 64) - 4], dtype=np.uint64)
        )
        write_le32(batch.frames, batch.width - 4, icrc_rows(batch.frames))
        nic = columnar.cluster[0].nic
        assert nic.ingest_batch(batch) == batch.count - 1
        batch.release()
        assert nic.counters.dropped_access == 1


class TestRegionColumnarWrites:
    def _paired_regions(self, size=1024):
        return MemoryRegion(size), MemoryRegion(size)

    def test_matches_sequential_writes_with_duplicates(self):
        """Duplicate offsets resolve last-wins with identical overwrite
        accounting to applying the writes one at a time, in order."""
        rng = np.random.default_rng(9)
        width = 16
        slots = np.arange(0, 1024, width)
        offsets = rng.choice(slots, size=60, replace=True).astype(np.int64)
        payloads = rng.integers(0, 256, size=(60, width), dtype=np.uint8)
        # Some all-zero payloads so overwrite accounting sees dead slots.
        payloads[::7] = 0

        sequential, columnar = self._paired_regions()
        for offset, payload in zip(offsets, payloads):
            sequential.write_offset(int(offset), payload.tobytes())
        written = columnar.write_offset_columnar(offsets, payloads)

        assert written == len(offsets)
        assert sequential.snapshot() == columnar.snapshot()
        assert sequential.write_count == columnar.write_count
        assert (
            sequential.c_bytes_written.value == columnar.c_bytes_written.value
        )
        assert (
            sequential.c_slot_overwrites.value
            == columnar.c_slot_overwrites.value
        )

    def test_out_of_bounds_batch_applies_nothing(self):
        region = MemoryRegion(256)
        offsets = np.array([0, 16, 255], dtype=np.int64)  # last row spills
        payloads = np.full((3, 16), 0x5A, dtype=np.uint8)
        with pytest.raises(RegionAccessError, match="outside region"):
            region.write_offset_columnar(offsets, payloads)
        assert region.snapshot() == bytes(256)
        assert region.write_count == 0

    def test_empty_batch_is_a_no_op(self):
        region = MemoryRegion(64)
        assert region.write_offset_columnar(
            np.empty(0, dtype=np.int64), np.empty((0, 8), dtype=np.uint8)
        ) == 0
        assert region.write_count == 0
