"""Tests for the telemetry fabric seam (repro.fabric) and batched paths.

Three claims are enforced here:

1. transport semantics -- inline delivers synchronously, buffered defers
   until threshold/flush, counters account for every frame;
2. equivalence -- routing a workload through ``BufferedFabric`` (flushed)
   leaves collector memory bit-identical to ``InlineFabric``, and the
   batched write/addressing APIs produce bit-identical results to their
   scalar counterparts;
3. the seam itself -- no module in ``src/`` outside the fabric and the
   endpoint implementations calls ``receive_frame`` directly.
"""

import inspect
import pathlib
import re

import numpy as np
import pytest

from repro.core.config import DartConfig
from repro.collector.collector import CollectorCluster
from repro.collector.counters import CounterStore
from repro.collector.remote_query import RemoteQueryClient
from repro.collector.store import DartStore
from repro.core.cas_store import CasDartStore
from repro.fabric import (
    BufferedFabric,
    Fabric,
    FabricPort,
    ImpairedFabric,
    InlineFabric,
)
from repro.hashing.hash_family import HashFamily, fold_key
from repro.network.flows import FlowGenerator
from repro.rdma.frames import FrameBatch
from repro.network.packet_sim import PacketLevelIntNetwork
from repro.network.topology import FatTreeTopology
from repro.primitives.clients import OneSidedReader
from repro.primitives.translator import ResponseDemux
from repro.switch.dart_switch import DartSwitch

from .rigs import PUT_MANY_INPUTS, RecordingPort, assert_same_store_state, nic_state


def small_config(**overrides):
    defaults = dict(slots_per_collector=1 << 10, num_collectors=2, seed=3)
    defaults.update(overrides)
    return DartConfig(**defaults)


class TestEndpointRegistry:
    def test_attach_and_lookup(self):
        fabric = InlineFabric()
        port = RecordingPort()
        fabric.attach(7, port)
        assert fabric.port(7) is port
        assert fabric.endpoint_ids() == [7]

    def test_duplicate_attach_rejected(self):
        fabric = InlineFabric()
        fabric.attach(1, RecordingPort())
        with pytest.raises(ValueError, match="already attached"):
            fabric.attach(1, RecordingPort())

    def test_unknown_endpoint_raises(self):
        fabric = InlineFabric()
        fabric.attach(0, RecordingPort())
        with pytest.raises(KeyError):
            fabric.port(5)
        with pytest.raises(KeyError):
            fabric.send(5, b"frame")

    def test_ports_satisfy_protocol(self):
        config = small_config()
        cluster = CollectorCluster(config)
        assert isinstance(cluster[0], FabricPort)
        assert isinstance(RecordingPort(), FabricPort)


class TestInlineFabric:
    def test_synchronous_delivery(self):
        fabric = InlineFabric()
        port = RecordingPort(execute=True)
        fabric.attach(0, port)
        assert fabric.send(0, b"a") is True
        assert port.frames == [b"a"]
        assert fabric.pending() == 0
        counters = fabric.counters
        assert counters.frames_offered == 1
        assert counters.frames_delivered == 1
        assert counters.frames_executed == 1
        assert counters.frames_rejected == 0

    def test_rejected_frames_counted(self):
        fabric = InlineFabric()
        fabric.attach(0, RecordingPort(execute=False))
        assert fabric.send(0, b"bad") is False
        assert fabric.counters.frames_rejected == 1
        assert fabric.counters.frames_executed == 0

    def test_poll_drains_outbound(self):
        fabric = InlineFabric()
        port = RecordingPort()
        port.outbound = [b"resp"]
        fabric.attach(0, port)
        assert fabric.poll(0) == [b"resp"]
        assert fabric.poll(0) == []


    def test_contiguous_runs_deliver_as_borrowed_views(self):
        """A 4-run READ matrix (one run per collector, a sweep's shape)
        reaches each port as a view of its rows: no pool buffer is taken
        for it, every lease goes back, and each NIC and demux ends as the
        copying ``select`` delivery leaves it."""

        def deployment():
            config = DartConfig(slots_per_collector=64, num_collectors=4, seed=5)
            cluster = CollectorCluster(config)
            fabric = cluster.attach_to(InlineFabric())
            readers = [
                OneSidedReader(fabric, role, cluster.node(role).nic, 0xC00 + role,
                               ResponseDemux(), cluster.node(role).region.rkey)
                for role in range(4)
            ]
            runs = [
                (reader, [cluster.node(role).region.base_address + 24 * slot
                          for slot in range(3 + role)])
                for role, reader in enumerate(readers)
            ]
            return cluster, fabric, readers, OneSidedReader._read_run_batch(runs, 24)

        def outcome(cluster, fabric, readers):
            filed = []
            for reader in readers:
                reader.demux.poll(fabric, reader.endpoint_id)
                filed.append([
                    (rows.psns.tolist(), rows.payloads.tolist())
                    for rows in reader.demux.take(reader.qp.qp_number)
                ])
            return [nic_state(node.nic) for node in cluster], filed

        cluster, fabric, readers, batch = deployment()
        pool = readers[0]._pool
        allocations = pool.allocations
        assert len(list(batch.groups())) == 4
        assert fabric.send_batch(batch) == 3 + 4 + 5 + 6
        assert pool.allocations == allocations and pool.in_flight == 0
        borrowed = outcome(cluster, fabric, readers)

        cluster, fabric, readers, batch = deployment()
        for endpoint_id, rows in batch.groups():
            sub = batch.select(rows)
            fabric._deliver_batch(endpoint_id, sub)
            sub.release()
        batch.release()
        assert borrowed == outcome(cluster, fabric, readers)
        assert all(files for files in borrowed[1])


class TestBufferedFabric:
    def test_defers_until_flush(self):
        fabric = BufferedFabric(flush_threshold=None)
        port = RecordingPort()
        fabric.attach(0, port)
        assert fabric.send(0, b"a") is None
        assert fabric.send(0, b"b") is None
        assert port.frames == []
        assert fabric.pending() == 2
        assert fabric.pending_for(0) == 2
        delivered = fabric.flush()
        assert delivered == 2
        assert port.frames == [b"a", b"b"]
        assert fabric.pending() == 0
        assert fabric.counters.frames_delivered == 2

    def test_threshold_triggers_per_link_flush(self):
        fabric = BufferedFabric(flush_threshold=3)
        port_a, port_b = RecordingPort(), RecordingPort()
        fabric.attach(0, port_a)
        fabric.attach(1, port_b)
        fabric.send(0, b"a1")
        fabric.send(0, b"a2")
        fabric.send(1, b"b1")
        assert port_a.frames == [] and port_b.frames == []
        fabric.send(0, b"a3")  # hits the threshold on link 0 only
        assert port_a.frames == [b"a1", b"a2", b"a3"]
        assert port_b.frames == []
        assert fabric.pending_for(1) == 1

    def test_order_preserved_per_link(self):
        fabric = BufferedFabric(flush_threshold=None)
        port = RecordingPort()
        fabric.attach(0, port)
        frames = [bytes([i]) for i in range(10)]
        # Mixed traffic on one link: frames, a columnar batch, frames.
        for frame in frames[:3]:
            fabric.send(0, frame)
        fabric.send_batch(
            FrameBatch(
                np.array([[3], [4], [5], [6]], dtype=np.uint8),
                np.zeros(4, dtype=np.int64),
            )
        )
        for frame in frames[7:]:
            fabric.send(0, frame)
        assert fabric.pending_for(0) == 10
        fabric.flush()
        assert port.frames == frames

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            BufferedFabric(flush_threshold=0)

    def test_send_validates_endpoint_before_queueing(self):
        fabric = BufferedFabric()
        with pytest.raises(KeyError):
            fabric.send(9, b"frame")
        assert fabric.pending() == 0

    def test_poll_flushes_the_polled_link_first(self):
        fabric = BufferedFabric(flush_threshold=None)
        port = RecordingPort()
        fabric.attach(0, port)
        fabric.send(0, b"req")
        assert fabric.poll(0) == []  # nothing outbound, but the link drained
        assert port.frames == [b"req"]


class TestBatchedPrimitives:
    """The batched APIs must be bit-identical to their scalar counterparts."""

    def test_hash_folded_matches_hash_key(self):
        family = HashFamily(seed=11)
        for key in [("flow", 1), ("10.0.0.1", "10.0.0.2", 5000, 80, 6), "k"]:
            folded = fold_key(key)
            for index in (0, 1, 5, 0x7FFFFFFF):
                assert family.hash_folded(folded, index) == family.hash_key(
                    key, index
                )


def run_workload(store):
    """A deterministic mixed workload, returns the keys used."""
    keys = []
    for i in range(120):
        key = ("flow", i % 40)  # repeats force overwrites
        store.put(key, (i * 7 % 251).to_bytes(20, "big"))
        keys.append(key)
    return keys


class TestFabricEquivalence:
    """Same workload, different transport: memory must be bit-identical."""

    def test_inline_vs_buffered_store(self):
        config = small_config()
        inline_store = DartStore(config, packet_level=True, fabric=InlineFabric())
        buffered = BufferedFabric(flush_threshold=None)
        buffered_store = DartStore(config, packet_level=True, fabric=buffered)

        run_workload(inline_store)
        run_workload(buffered_store)
        assert buffered.pending() > 0  # really was deferred
        buffered.flush()
        assert buffered.pending() == 0

        for collector_a, collector_b in zip(
            inline_store.cluster, buffered_store.cluster
        ):
            assert (
                collector_a.region.snapshot() == collector_b.region.snapshot()
            )
            counters_a = collector_a.nic.counters
            counters_b = collector_b.nic.counters
            assert counters_a.frames_received == counters_b.frames_received
            assert counters_a.writes_executed == counters_b.writes_executed
            assert counters_a.frames_dropped == counters_b.frames_dropped

        # Every key queryable through either store, same answers.
        for key in set(run_workload(DartStore(config))):
            assert (
                inline_store.get(key).value == buffered_store.get(key).value
            )

    def test_inline_vs_buffered_auto_threshold(self):
        config = small_config()
        inline_store = DartStore(config, packet_level=True)
        buffered = BufferedFabric(flush_threshold=5)
        buffered_store = DartStore(config, packet_level=True, fabric=buffered)
        run_workload(inline_store)
        run_workload(buffered_store)
        buffered.flush()
        for collector_a, collector_b in zip(
            inline_store.cluster, buffered_store.cluster
        ):
            assert (
                collector_a.region.snapshot() == collector_b.region.snapshot()
            )

    def test_put_many_packet_level_equivalence(self):
        config = small_config(slots_per_collector=1 << 6)
        factories = [
            InlineFabric,
            lambda: BufferedFabric(flush_threshold=5),
            lambda: ImpairedFabric(
                InlineFabric(), loss=0.1, duplication=0.1, reordering=0.1,
                seed=11,
            ),
        ]
        for factory in factories:
            for items in PUT_MANY_INPUTS:
                store_a = DartStore(config, packet_level=True, fabric=factory())
                store_b = DartStore(config, packet_level=True, fabric=factory())
                written = store_a.put_many(items)  # flushes internally
                assert written == sum(store_b.put(k, v) for k, v in items)
                store_b.fabric.flush()
                assert store_a.fabric.pending() == store_b.fabric.pending() == 0
                assert_same_store_state(store_a, store_b)
                if factory is InlineFabric:
                    # Lossless wire: same state as the in-process store.
                    reference = DartStore(config)
                    reference.put_many(items)
                    assert_same_store_state(store_a, reference)


class TestFabricIntegration:
    def test_switch_requires_bound_fabric(self):
        config = small_config()
        switch = DartSwitch(config, switch_id=1)
        with pytest.raises(RuntimeError, match="no fabric bound"):
            switch.report_into(("flow", 1), b"\x00" * 20)

    def test_switch_report_into(self):
        config = small_config(num_collectors=1)
        store = DartStore(config, packet_level=True)
        switch = store._switch
        offered = switch.report_into(("flow", 9), b"\x09" * 20)
        assert offered == config.redundancy
        assert store.get_value(("flow", 9)) == b"\x09" * 20

    def test_packet_network_over_buffered_fabric(self):
        tree = FatTreeTopology(k=4)
        config = DartConfig(slots_per_collector=1 << 12, num_collectors=1)
        fabric = BufferedFabric(flush_threshold=None)
        network = PacketLevelIntNetwork(tree, config, fabric=fabric)
        flows = FlowGenerator(
            tree.num_hosts, host_ip=tree.host_ip, seed=2
        ).uniform(30)
        for flow in flows:
            result = network.send(flow)
            assert result.report_frames == config.redundancy
        assert fabric.pending() > 0
        fabric.flush()
        for flow in flows:
            assert network.query_path(flow).answered

    def test_packet_network_counts_the_report_frames_not_lost(self):
        """A sink's ``report_frames`` is ``report_into``'s count: the
        redundant frames minus that packet's loss drops."""
        tree = FatTreeTopology(k=4)
        config = DartConfig(slots_per_collector=1 << 12, num_collectors=2)
        fabric = ImpairedFabric(InlineFabric(), loss=0.3, reordering=0.3, seed=6)
        network = PacketLevelIntNetwork(tree, config, fabric=fabric)
        counters = fabric.counters
        for flow in FlowGenerator(tree.num_hosts, host_ip=tree.host_ip, seed=6).uniform(60):
            lost = counters.frames_dropped_loss
            frames = network.send(flow).report_frames
            assert frames == config.redundancy - (counters.frames_dropped_loss - lost)
        assert 0 < counters.frames_dropped_loss < counters.frames_offered

    def test_fabric_requires_packet_level(self):
        config = small_config()
        with pytest.raises(ValueError, match="packet_level=True"):
            DartStore(config, fabric=InlineFabric())

    def test_remote_query_through_buffered_fabric(self):
        config = small_config()
        store = DartStore(config)
        keys = run_workload(store)
        fabric = store.cluster.attach_to(BufferedFabric(flush_threshold=None))
        remote = RemoteQueryClient(config, store.cluster, fabric=fabric)
        for key in set(keys):
            local = store.get(key)
            assert remote.query(key).value == local.value
        assert remote.read_requests_sent > 0

    def test_counter_store_over_fabric(self):
        inline = CounterStore(cells_per_row=1 << 10, rows=2)
        batched = CounterStore(cells_per_row=1 << 10, rows=2)
        items = [((f"flow-{i % 7}",), i % 3 + 1) for i in range(30)]
        for key, amount in items:
            inline.add(key, amount)
        offered = batched.add_many(items)
        assert offered == len(items) * 2  # one frame per sketch row
        assert inline.total_adds() == batched.total_adds()
        for key, _amount in items:
            assert inline.estimate(key) == batched.estimate(key)

    def test_cas_store_over_fabric(self):
        store_a = CasDartStore(num_slots=1 << 10)
        store_b = CasDartStore(
            num_slots=1 << 10, fabric=BufferedFabric(flush_threshold=None)
        )
        items = [((f"k{i}",), i) for i in range(40)]
        for key, value in items:
            store_a.put(key, value)
        offered = store_b.put_many(items)
        assert offered == len(items) * 2  # WRITE + CAS per key
        assert store_a.region.snapshot() == store_b.region.snapshot()
        for key, value in items:
            assert store_a.get(key) == store_b.get(key)


ALLOWED_RECEIVE_FRAME_FILES = {
    # The seam itself plus the two endpoint implementations.
    pathlib.PurePosixPath("repro/fabric/fabric.py"),
    pathlib.PurePosixPath("repro/rdma/nic.py"),
    pathlib.PurePosixPath("repro/collector/collector.py"),
}


class TestSeamEnforcement:
    """No module outside the fabric/endpoints may deliver frames directly."""

    def test_no_direct_receive_frame_calls_in_src(self):
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        offenders = []
        for path in sorted(src.rglob("*.py")):
            relative = pathlib.PurePosixPath(
                path.relative_to(src).as_posix()
            )
            if relative in ALLOWED_RECEIVE_FRAME_FILES:
                continue
            for lineno, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                stripped = line.split("#", 1)[0]
                if ".receive_frame(" in stripped:
                    offenders.append(f"{relative}:{lineno}")
        assert offenders == [], (
            "direct receive_frame() deliveries bypass the fabric seam: "
            + ", ".join(offenders)
        )

    def test_two_granularities_per_layer(self):
        """One frame and one batch per layer: the middle tier stays gone."""
        import repro.core.reporter as reporter_module
        import repro.fabric.fabric as fabric_module
        import repro.fabric.impaired as impaired_module
        from repro.collector.collector import Collector
        from repro.mem.region import MemoryRegion
        from repro.rdma.nic import RdmaNic

        retired = (
            "send_many", "_deliver_many", "ingest_many", "write_offset_many",
            "write_slots", "report_batch", "drain_pairs", "apply_writes",
        )
        owners = [fabric_module, impaired_module, reporter_module]
        owners += [
            cls
            for module in (fabric_module, impaired_module)
            for _name, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__.startswith("repro.fabric")
        ]
        owners += [
            RdmaNic, Collector, CollectorCluster, MemoryRegion,
            reporter_module.DartReporter,
        ]
        # perf/trace.py (frozen) enumerates these three as trace boundaries;
        # they survive as uncalled loops over the scalar method, defined
        # once and overridden nowhere.
        shims = {"Fabric.send_many", "RdmaNic.ingest_many", "Collector.ingest_many"}
        offenders = {
            f"{owner.__name__}.{name}"
            for owner in owners
            for name in retired
            if name in vars(owner)
        }
        assert offenders == shims
        source = pathlib.Path(fabric_module.__file__).parents[1]
        callers = [
            str(path)
            for path in source.rglob("*.py")
            if re.search(r"\.(send|ingest)_many\(", path.read_text())
        ]
        assert callers == []
        assert "columnar" not in inspect.signature(DartStore).parameters
        port_surface = {
            name
            for name, value in vars(FabricPort).items()
            if callable(value) and not name.startswith("_")
        }
        assert port_surface == {"receive_frame", "transmit"}
        # The read side: frame = a short read_run / receive_frame / dma_read,
        # batch = a long read_run / ingest_batch / read_offset_columnar.
        from repro.primitives.clients import OneSidedReader

        def public(cls, word):
            return {
                name
                for name, value in vars(cls).items()
                if callable(value) and word in name and not name.startswith("_")
            }

        assert public(OneSidedReader, "read") == {"read_run"}
        assert public(RdmaNic, "ingest") | public(RdmaNic, "receive") == {
            "receive_frame", "ingest_batch", "ingest_many",
        }
        # read_offset is the collector CPU's local read, not a wire verb.
        assert public(MemoryRegion, "read") == {
            "dma_read", "read_offset", "read_offset_columnar",
        }

    def test_one_one_sided_reader(self):
        """READ requests are built and READ responses matched in one place:
        the codecs, ``OneSidedReader`` and the ``ResponseDemux`` decode."""
        import repro
        from repro.core.client import DartQueryClient

        source = pathlib.Path(repro.__file__).parent
        readers = {"primitives/clients.py", "primitives/translator.py"}
        offenders = [
            relative
            for path in sorted(source.rglob("*.py"))
            for relative in [path.relative_to(source).as_posix()]
            if not relative.startswith("rdma/") and relative not in readers
            if re.search(r"RC_RDMA_READ_(REQUEST|RESPONSE_ONLY)", path.read_text())
        ]
        assert offenders == []
        assert issubclass(RemoteQueryClient, DartQueryClient)
        assert "loss" not in inspect.signature(RemoteQueryClient).parameters
        assert "query" not in vars(RemoteQueryClient)

    def test_fabric_is_abstract(self):
        fabric = Fabric()
        fabric.attach(0, RecordingPort())
        with pytest.raises(NotImplementedError):
            fabric.send(0, b"frame")

    def test_impaired_exported_from_package(self):
        assert ImpairedFabric is not None
