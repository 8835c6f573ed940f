"""What the test modules share, kept out of every ``test_*`` module.

pytest does not collect this file (it is not ``test_*.py``).  It holds the
one fabric matrix the granularity harness runs end to end over, the ports
that watch a fabric, the views two runs are compared by, the Hypothesis
field strategies of the wire's edge values, the small rigs several modules
build, and :data:`TEMPLATE_SITES`: the frame-plan sites every encode row of
``test_granularities.py`` must reach.  A ``test_*`` module imports helpers
from here, never from another ``test_*`` module (``test_hotpath_lint.py``
enforces it).
"""

import pathlib
import struct

import numpy as np
from hypothesis import strategies as st

from repro import obs
from repro.collector.collector import CollectorCluster
from repro.collector.store import DartStore
from repro.control.shards import shard_map_of
from repro.core.client import DartQueryClient
from repro.core.config import DartConfig
from repro.fabric import BufferedFabric, ImpairedFabric, InlineFabric
from repro.mem.region import MemoryRegion
from repro.primitives.clients import OneSidedReader
from repro.primitives.translator import ResponseDemux
from repro.query.backend import FanoutBackend
from repro.query.fleet import QueryFleet
from repro.query.service import QueryService
from repro.rdma.frames import FrameBatch
from repro.rdma.nic import RdmaNic
from repro.rdma.qp import PSN_MODULUS

from . import reference_codec as reference

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: The plan sites: the module, the method that builds the site's plans, the
#: batch body that stamps a matrix from a plan (None for a frame-only site)
#: and the frame body that stamps one frame from a plan.
TEMPLATE_SITES = [
    (SRC / "switch" / "dart_switch.py", "DartSwitch.install_collector", "encode_batch",
     "report"),
    (SRC / "primitives" / "translator.py", "PrimitiveTranslator.__init__",
     "_encode_fetch_add_batch", "craft_fetch_add"),
    (SRC / "primitives" / "translator.py", "AppendTranslator.__init__", "append_many",
     "craft_record_write"),
    (SRC / "primitives" / "clients.py", "OneSidedReader.__init__", "_read_run_batch",
     "_craft_read"),
    (SRC / "rdma" / "nic.py", "RdmaNic._response_plan", "_ingest_read_batch",
     "_enqueue_response"),
    (SRC / "core" / "cas_store.py", "CasDartStore.__init__", None, "_craft_put_frames"),
]


# ---------------------------------------------------------------------------
# The one fabric matrix
# ---------------------------------------------------------------------------

#: Every fabric an end-to-end pair or a reader test runs over, each at the
#: parameters the test that first needed it was written against.
FABRICS = {
    "inline": InlineFabric,
    "buffered_5": lambda: BufferedFabric(flush_threshold=5),
    "buffered_17": lambda: BufferedFabric(flush_threshold=17),
    "buffered_manual": lambda: BufferedFabric(flush_threshold=None),
    "impaired_loss": lambda: ImpairedFabric(InlineFabric(), loss=0.1, seed=11),
    "impaired_inline": lambda: ImpairedFabric(
        InlineFabric(), loss=0.1, duplication=0.1, reordering=0.15, seed=23
    ),
    "impaired_buffered": lambda: ImpairedFabric(
        BufferedFabric(flush_threshold=5), loss=0.1, duplication=0.1, reordering=0.15, seed=41
    ),
    "impaired_all_inline": lambda: ImpairedFabric(
        InlineFabric(), loss=0.05, duplication=0.08, reordering=0.15, seed=23
    ),
    "impaired_all_buffered": lambda: ImpairedFabric(
        BufferedFabric(flush_threshold=13), loss=0.05, duplication=0.08, reordering=0.15, seed=23
    ),
    "impaired_lossy": lambda: ImpairedFabric(
        InlineFabric(), loss=0.15, duplication=0.1, reordering=0.15, seed=17
    ),
    "impaired_swap_heavy": lambda: ImpairedFabric(
        InlineFabric(), loss=0.1, duplication=0.2, reordering=0.5, seed=5
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
        self.responses.extend(wire_frames(out))
        return out


class RecordingPort:
    """A minimal FabricPort that records frames and executes on demand."""

    def __init__(self, execute=True):
        self.frames = []
        self.execute = execute
        self.outbound = []

    def receive_frame(self, frame):
        self.frames.append(frame)
        return self.execute

    def transmit(self):
        drained, self.outbound = self.outbound, []
        return drained


class RecordingFabric:
    """Keeps the bytes of every batch offered; delivers nothing."""

    def __init__(self):
        self.matrices = []

    def send(self, endpoint_id, frame):
        raise AssertionError("the batch encoders send matrices")

    def send_batch(self, batch):
        self.matrices.append(batch.frames.copy())
        batch.release()

    def flush(self):
        return 0

    def poll(self, endpoint_id):
        return []


def wire_frames(entries):
    """A TX queue's entries (bytes or :class:`FrameBatch`) as frame bytes."""
    frames = []
    for entry in entries:
        if isinstance(entry, FrameBatch):
            frames.extend(row.tobytes() for row in entry.frames)
        else:
            frames.append(entry)
    return frames


def frame_accounting(counters):
    """Fabric counters minus ``flushes``: the per-frame conservation fields.

    Flush *cadence* legitimately differs between the paths -- a batch
    crosses a buffered threshold once where frames cross it one by one --
    but every per-frame series (offered/delivered/executed/rejected/lost/
    duplicated/reordered) must be identical.
    """
    return {name: getattr(counters, name) for name, *_ in counters.FIELDS if name != "flushes"}


def nic_state(nic):
    """Every NIC counter, by name."""
    return {name: getattr(nic.counters, name) for name, *_ in nic.counters.FIELDS}


def impairment_state(fabric):
    """What an impaired fabric carries into its next call: the frames it
    holds (in hold order) and where its draws stand."""
    if not isinstance(fabric, ImpairedFabric):
        return None
    return list(fabric._held.items()), fabric._rng.getstate()


def fresh_registry():
    """Install a fresh registry; returns (registry, restore)."""
    registry = obs.MetricsRegistry()
    previous = obs.set_registry(registry)
    return registry, lambda: obs.set_registry(previous)


def fresh_obs(**tracer_kwargs):
    """Install a fresh registry and tracer; returns (registry, tracer, restore)."""
    registry, restore_registry = fresh_registry()
    tracer = obs.Tracer(**tracer_kwargs)  # after the registry: its gauges land there
    previous_tracer = obs.set_tracer(tracer)

    def restore():
        restore_registry()
        obs.set_tracer(previous_tracer)

    return registry, tracer, restore


# ---------------------------------------------------------------------------
# Field strategies: every width, and the edges of the wire's integer fields
# ---------------------------------------------------------------------------

U32 = (1 << 32) - 1
U64 = (1 << 64) - 1
macs = st.binary(min_size=6, max_size=6).map(lambda raw: ":".join(f"{b:02x}" for b in raw))
ips = st.binary(min_size=4, max_size=4).map(lambda raw: ".".join(str(b) for b in raw))
u24 = st.integers(0, PSN_MODULUS - 1)
#: 24-bit counters, half of them close enough to the wrap for a run to cross it.
near_wrap = u24.map(lambda v: v if v & 1 else PSN_MODULUS - 1 - (v >> 1) % 70)
rkeys = st.integers(0, U32)
u64 = st.integers(0, U64)
#: Payload widths, odd ones included.
widths = st.integers(1, 41)


def near_top(value):
    """An address anywhere for an odd ``value``, else one within a page of 2**64."""
    return value if value & 1 else U64 - (value >> 52)


def high_base(draw, span):
    """A base address whose ``span`` bytes end at or just below 2**64, or anywhere."""
    return draw(st.one_of(st.integers(0, U64 - span), st.integers(U64 - span - 64, U64 - span)))


#: 64-bit integers, both ends drawn often.
u64_edges = st.integers(0, 2**64 - 1) | st.sampled_from([0, 2**64 - 1])
ascii_text = st.text(st.characters(max_codepoint=127), max_size=20)
#: Tuple elements the flat encoding takes, and integers past 64 bits.
flat_elements = st.one_of(
    ascii_text,
    st.text(max_size=12),
    st.binary(max_size=12),
    u64_edges,
    st.sampled_from([0, 2**64 - 1, 2**64, 2**80]),
)
#: Flat and nested tuple keys of up to six elements.
tuple_keys = st.lists(
    flat_elements
    | st.tuples(flat_elements, flat_elements)
    | st.tuples(flat_elements, st.tuples(flat_elements)),
    max_size=6,
).map(tuple)

_atoms = st.one_of(
    st.integers(min_value=0, max_value=2**64),
    st.text(min_size=1, max_size=16),
    st.binary(min_size=1, max_size=64),
)
#: Keys of every shape the fold takes: atoms, pairs, flow tuples, nested tuples.
mixed_keys = st.one_of(
    _atoms,
    st.tuples(_atoms, _atoms),
    st.tuples(st.text(max_size=15), st.text(max_size=15), *[st.integers(0, 65535)] * 3),
    st.tuples(st.integers(0, 2**32), st.tuples(_atoms, st.integers(0, 255))),
)

# ---------------------------------------------------------------------------
# Bits no header dataclass models, and an iCRC restamp that uses no live code
# ---------------------------------------------------------------------------

#: Frame bytes holding bits no header dataclass models, and those bits: the
#: BTH TVer nibble, and the seven reserved bits beside AckReq.
TVER_BYTE, TVER_BITS = 43, 0x0F
RESERVED7_BYTE, RESERVED7_BITS = 50, 0x7F


def restamp_icrc(wire: bytes) -> bytes:
    """``wire`` with its iCRC recomputed over the bytes as they stand, by
    the oracle's table loop and the annex mask (no live code involved)."""
    image = bytearray(b"\xff" * 8 + wire[14:-4])
    for column in (9, 16, 18, 19, 34, 35, 40):
        image[column] = 0xFF
    return wire[:-4] + struct.pack("<I", reference.crc32(bytes(image)))


# ---------------------------------------------------------------------------
# Deployments
# ---------------------------------------------------------------------------


def small_config(**overrides):
    """Two collectors of 1 024 slots holding 8-byte values; ``overrides`` replace fields."""
    return DartConfig(**{
        "slots_per_collector": 1 << 10, "num_collectors": 2, "redundancy": 2, "value_bytes": 8,
        **overrides,
    })


def make_items(count, width=7):
    """Flow-tuple keyed items with varied value lengths (including empty)."""
    items = []
    for i in range(count):
        key = (f"10.0.{i >> 8 & 255}.{i & 255}", "10.9.9.9", 5000 + i, 80, 6)
        value = (b"val-%d!" % i)[: i % (width + 1)]
        items.append((key, value))
    return items


#: ``put_many`` batches: fresh keys, then repeated keys (last value must win)
#: that, at 64 slots per collector, collide on slots within one batch.
PUT_MANY_INPUTS = [
    [(("flow", i), i.to_bytes(20, "big")) for i in range(60)],
    [
        (("flow", i % 45), (i * 7 % 251 + 1).to_bytes(20, "big"))
        for i in range(150)
    ],
]


def assert_same_store_state(store_a, store_b):
    """Region bytes and write/overwrite counters match, per collector."""
    for collector_a, collector_b in zip(store_a.cluster, store_b.cluster):
        region_a, region_b = collector_a.region, collector_b.region
        assert region_a.snapshot() == region_b.snapshot()
        assert region_a.write_count == region_b.write_count
        assert region_a.c_slot_overwrites.value == region_b.c_slot_overwrites.value


def make_reader(qp, rkey):
    """A reader of QP ``qp`` on a NIC of its own, over a fabric that delivers nothing."""
    nic = RdmaNic(MemoryRegion(64))
    return OneSidedReader(RecordingFabric(), 0, nic, qp, ResponseDemux(), rkey)


#: The served deployment ``perf/`` drives, and its keys and queries.
KEYS = [f"10.0.{i}.1:{4000 + i}>10.9.{i}.2:443/6" for i in range(64)]
POINT = 'select value from keys where key == "%s"' % KEYS[7]
SWEEP = "select value from keys"


def service_config():
    return DartConfig(slots_per_collector=1 << 10, num_collectors=4, redundancy=2)


def store_rig():
    config = service_config()
    store = DartStore(config, packet_level=True)
    store.put_many([(key, b"v") for key in KEYS])
    shard_map = shard_map_of(store.cluster)
    service = QueryService(
        backend=FanoutBackend(config, store.cluster, store.fabric),
        shard_map_provider=lambda: shard_map,
    )
    return service, DartQueryClient(config, reader=store.cluster.read_slot)


def fleet_rig():
    fleet = QueryFleet(service_config())
    fleet.put_many([(key, b"v") for key in KEYS])
    return QueryService(fleet), DartQueryClient(fleet.config, reader=fleet.cluster.read_slot)


SLOTS = 256
READER_QP = 0xC00


class ReadRig:
    """One collector behind a tapped fabric, read by one reader."""

    def __init__(self, fabric, start_psn=0):
        self.config = DartConfig(slots_per_collector=SLOTS, num_collectors=1, seed=5)
        self.fabric = fabric
        self.cluster = CollectorCluster(self.config)
        self.node = self.cluster.node(0)
        image = np.random.default_rng(9).integers(
            1, 256, size=self.config.region_bytes, dtype=np.uint8
        )
        self.node.region._buffer[:] = image.tobytes()
        self.tap = Tap(self.node)
        fabric.attach(0, self.tap)
        self.reader = OneSidedReader(
            fabric, 0, self.node.nic, READER_QP, ResponseDemux(), self.node.region.rkey,
        )
        self.reader._psn = start_psn

    def address(self, slot):
        return self.node.region.base_address + slot * self.config.slot_bytes

    def read(self, slots, length):
        """One ``read_run`` of ``slots``: its payload matrix and answered mask, as lists."""
        payloads, answered = self.reader.read_run([self.address(s) for s in slots], length)
        assert payloads.dtype == np.uint8 and payloads.shape == (len(slots), length)
        assert answered.dtype == bool and not payloads[~answered].any()
        return payloads.tolist(), answered.tolist()

    def state(self):
        """Everything two paths must agree on after a run."""
        delivered = (
            self.fabric.delivered if isinstance(self.fabric, ImpairedFabric)
            else self.fabric.counters
        )
        return {
            "requests": self.tap.requests,
            "responses": self.tap.responses,
            "nic": nic_state(self.node.nic),
            "offered": frame_accounting(self.fabric.counters),
            "delivered": frame_accounting(delivered),
            "msn": self.reader.qp.msn,
            "psn": self.reader._psn,
            "impairment": impairment_state(self.fabric),
        }
