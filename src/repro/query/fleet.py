"""A servable demo deployment: collector fleet + per-shard primitive stores.

The query front end needs something to serve.  :class:`QueryFleet` wires
the full read surface behind one object:

- a **keys plane**: a :class:`~repro.collector.collector.CollectorCluster`
  (optionally with standbys) attached to a fabric by role, written
  through a real :class:`~repro.switch.dart_switch.DartSwitch`, provisioned
  by a :class:`~repro.switch.control_plane.SwitchControlPlane`;
- a **store plane**: per-role Key-Increment counter banks, Sketch-Merge
  banks and Append rings on a second fabric of the same flavour, routed
  by the collector role read off each key's lane, so every substrate is
  sharded exactly like the keyspace;
- an optional **fleet controller** (:meth:`enable_control`) ticked on the
  fleet's logical clock, which is what makes the shard map *move*:
  :meth:`kill_node` crashes a host, probes miss, the controller bumps the
  epoch and promotes a standby, and :meth:`shard_map` reflects it.

Writes advance :attr:`clock` (the packet clock queries, quotas and cache
TTLs run on), and written keys are remembered in :attr:`known_keys` --
the candidate set DART queries need, since the store itself cannot
enumerate keys.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.collector.collector import CollectorCluster
from repro.collector.counters import CounterStore
from repro.control.shards import ShardMap, shard_map_of
from repro.core.config import DartConfig
from repro.fabric.fabric import BufferedFabric, Fabric, InlineFabric
from repro.fabric.impaired import ImpairedFabric
from repro.hashing.hash_family import Key
from repro.primitives.append import AppendStore
from repro.primitives.sketch import SketchStore
from repro.query.backend import FanoutBackend
from repro.switch.control_plane import SwitchControlPlane
from repro.switch.dart_switch import DartSwitch

#: Store-plane endpoint bases (per-role offsets keep NICs distinct).
COUNTER_SHARD_ENDPOINT_BASE = 2000
SKETCH_SHARD_ENDPOINT_BASE = 3000
RING_SHARD_ENDPOINT_BASE = 4000

#: Shape of each per-role counter/sketch bank.
COUNTER_CELLS = 1 << 10
COUNTER_ROWS = 2
#: Geometry of each per-role Append ring.
RING_CAPACITY = 128
RING_RECORD_BYTES = 16


def fabric_flavour(
    flavour: str, *, loss: float = 0.05, seed: int = 0
) -> Callable[[], Fabric]:
    """A factory for one of the three canonical fabric flavours.

    ``inline`` delivers synchronously, ``buffered`` defers until flush,
    ``impaired`` wraps inline delivery with seeded request-leg loss --
    the three regimes the e2e identity tests sweep.
    """
    if flavour == "inline":
        return InlineFabric
    if flavour == "buffered":
        return BufferedFabric
    if flavour == "impaired":
        return lambda: ImpairedFabric(InlineFabric(), loss=loss, seed=seed)
    raise ValueError(
        f"unknown fabric flavour {flavour!r} "
        f"(flavours: inline, buffered, impaired)"
    )


class QueryFleet:
    """Everything the query service fans out to, in one deployment.

    Parameters
    ----------
    config:
        Deployment config; ``num_collectors`` is the shard count.
    fabric_factory:
        Zero-arg callable building one fabric per plane (keys plane and
        store plane get separate instances of the same flavour); defaults
        to :class:`~repro.fabric.InlineFabric`.
    num_standbys:
        Warm spares for failover (0 disables).
    """

    def __init__(
        self,
        config: Optional[DartConfig] = None,
        *,
        fabric_factory: Optional[Callable[[], Fabric]] = None,
        num_standbys: int = 0,
    ) -> None:
        if config is None:
            config = DartConfig(
                slots_per_collector=1 << 12, num_collectors=4, redundancy=2
            )
        factory = fabric_factory if fabric_factory is not None else InlineFabric
        self.config = config
        self.cluster = CollectorCluster(config, num_standbys=num_standbys)
        #: The keys-plane transport (reports, probes, key READs).
        self.fabric = self.cluster.attach_to(factory())
        #: The store-plane transport (counters, sketches, rings).
        self.store_fabric = factory()
        self.switch = DartSwitch(config, switch_id=0, fabric=self.fabric)
        self.plane = SwitchControlPlane(config)
        self.plane.connect_switch(self.switch, self.cluster)

        self.counter_stores: Dict[int, CounterStore] = {}
        self.sketch_stores: Dict[int, SketchStore] = {}
        self.ring_stores: Dict[int, AppendStore] = {}
        self._ring_writers: Dict[int, object] = {}
        for role in range(config.num_collectors):
            self.counter_stores[role] = CounterStore(
                cells_per_row=COUNTER_CELLS,
                rows=COUNTER_ROWS,
                config=config,
                base_address=0x200000 + role * 0x100000,
                fabric=self.store_fabric,
                endpoint_id=COUNTER_SHARD_ENDPOINT_BASE + role,
            )
            self.sketch_stores[role] = SketchStore(
                cells_per_row=COUNTER_CELLS,
                rows=COUNTER_ROWS,
                config=config,
                base_address=0x1200000 + role * 0x100000,
                fabric=self.store_fabric,
                endpoint_id=SKETCH_SHARD_ENDPOINT_BASE + role,
            )
            ring = AppendStore(
                capacity=RING_CAPACITY,
                record_bytes=RING_RECORD_BYTES,
                base_address=0x2200000 + role * 0x100000,
                fabric=self.store_fabric,
                endpoint_id=RING_SHARD_ENDPOINT_BASE + role,
            )
            self.ring_stores[role] = ring
            self._ring_writers[role] = ring.register_writer(0)

        self.backend = FanoutBackend(
            config,
            self.cluster,
            self.fabric,
            counter_stores=self.counter_stores,
            sketch_stores=self.sketch_stores,
            ring_stores=self.ring_stores,
        )
        #: Optional FleetController (see :meth:`enable_control`).
        self.controller = None
        #: The fleet's logical packet clock (writes advance it).
        self.clock = 0
        #: Candidate keys, in first-write order (queries need candidates;
        #: a DART store cannot enumerate its keys).
        self.known_keys: List[Key] = []
        self._known = set()

    def __repr__(self) -> str:
        return (
            f"QueryFleet(shards={self.config.num_collectors}, "
            f"keys={len(self.known_keys)}, clock={self.clock})"
        )

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------

    def enable_control(self, *, fail_after: int = 2, tick_interval: int = 25):
        """Attach a fleet controller ticked on the fleet's logical clock."""
        from repro.control.controller import FleetController

        self.controller = FleetController(
            self.cluster,
            self.plane,
            self.fabric,
            fail_after=fail_after,
            tick_interval=tick_interval,
        )
        return self.controller

    def shard_map(self) -> ShardMap:
        """The epoch-current shard map (live controller state when enabled)."""
        if self.controller is not None:
            return self.controller.shard_map()
        return shard_map_of(self.cluster, epoch=0)

    def kill_node(self, node_id: int) -> None:
        """Chaos hook: crash one keys-plane collector host."""
        self.cluster.node(node_id).fail()

    def _advance(self, amount: int = 1) -> None:
        """Advance the logical clock; drives controller reconciliation."""
        self.clock += amount
        if self.controller is not None:
            self.controller.maybe_tick(self.clock)

    def settle(self, ticks: int = 1) -> None:
        """Advance the clock without traffic (lets the controller converge)."""
        for _tick in range(ticks):
            self._advance()

    # ------------------------------------------------------------------
    # Write surface (advances the packet clock)
    # ------------------------------------------------------------------

    def _remember(self, key: Key) -> None:
        if key not in self._known:
            self._known.add(key)
            self.known_keys.append(key)

    def put_many(self, items: Iterable[Tuple[Key, bytes]]) -> int:
        """Batched key reports: one columnar batch, one flush."""
        items = list(items)
        for key, _value in items:
            self._remember(key)
        self.switch.report_batch_into(items)
        self.fabric.flush()
        self._advance(len(items))
        return len(items)

    def count_many(self, items: Iterable[Tuple[Key, int]]) -> int:
        """Batched counting, routed to each key's shard bank."""
        return self._add_sharded(self.counter_stores, items)

    def sketch_many(self, items: Iterable[Tuple[Key, int]]) -> int:
        """Batched sketch updates, routed to each key's shard bank."""
        return self._add_sharded(self.sketch_stores, items)

    def _add_sharded(self, stores, items: Iterable[Tuple[Key, int]]) -> int:
        """One fold per key, then each shard bank counts its own lanes."""
        items = list(items)
        keys = [key for key, _amount in items]
        for key in keys:
            self._remember(key)
        for role, (where, lanes) in self.backend.route(keys).items():
            stores[role].add_folded(
                lanes, [items[position][1] for position in where]
            )
        self._advance(len(items))
        return len(items)

    def append(self, key: Key, record: bytes) -> None:
        """Append one record to the ring of the shard storing ``key``."""
        role = self.backend.addressing.collector_of(key)
        self._ring_writers[role].append(record)
        self.store_fabric.flush()
        self._advance()

    # ------------------------------------------------------------------
    # Direct read surface (ground truth for the identity tests)
    # ------------------------------------------------------------------

    def direct_estimate(self, key: Key, source: str) -> int:
        """The local (collector-CPU) count-min estimate for one key."""
        ((role, (_where, lanes)),) = self.backend.route([key]).items()
        stores = self.counter_stores if source == "counters" else self.sketch_stores
        store = stores[role]
        return store.translator.addressing.estimates(lanes, store._read_cells)[0]
