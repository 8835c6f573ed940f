"""Per-shard one-sided read execution behind the shared response demux.

The planner decides *what* to read from *which* shard; this module does
the reading.  For every keyspace shard it keeps one
:class:`~repro.primitives.clients.OneSidedReader` per read substrate,
built against the shard's *serving node* (its NIC, rkey, base address)
and rebuilt automatically when a failover moves the role to a standby --
the reader cache is keyed on ``(role, node_id)``, so a stale binding can
never survive a shard-map change.

Two properties the query front end depends on:

- **Pipelined, flushed reads.**  Everything goes through
  :meth:`OneSidedReader.read_run` (requests, flush, drain), so the same
  backend works over Inline, Buffered *and* Impaired fabrics -- an
  unflushed single READ would deadlock a deferring fabric.
- **Bounded retry against request-leg loss.**  The impaired fabric drops
  request frames; the response leg is modelled lossless, so a missing
  payload means the request never executed and re-issuing is safe
  (reads are idempotent).  :meth:`FanoutBackend.read_reliable` retries
  only the missing addresses; a shard whose reads *never* complete
  (a dead node drops every frame) raises :class:`ShardUnavailable`,
  which the service surfaces as a partial-shard failure.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.collector.collector import CollectorCluster
from repro.control.shards import ShardAssignment, ShardMap
from repro.core.addressing import DartAddressing
from repro.core.config import DartConfig
from repro.core.policies import ReturnPolicy, fold_slots
from repro.hashing.hash_family import Key, fold_keys
from repro.primitives.clients import OneSidedReader, read_ring_window
from repro.primitives.translator import ResponseDemux

#: Requester QP of the query front end's keys-plane reader for role 0.
QUERY_KEYS_QP_BASE = 0xC00

#: Requester QP of the front end's counter/sketch/ring readers.
QUERY_STORE_QP_BASE = 0xD00

#: Bounded retry rounds per read batch against request-leg loss, before a
#: shard is declared unavailable.
READ_ATTEMPTS = 16


class ShardUnavailable(RuntimeError):
    """A shard's reads never completed -- its serving node is unreachable."""

    def __init__(self, role: int, node_id: int) -> None:
        super().__init__(
            f"shard role={role} (node {node_id}) is unreachable: "
            f"no READ completed within the retry budget"
        )
        self.role = role
        self.node_id = node_id


def key_text(key: Key) -> str:
    """The textual form of a key, as query predicates see the ``key`` field."""
    if isinstance(key, str):
        return key
    if isinstance(key, bytes):
        return key.decode("latin-1")
    return repr(key)


class FanoutBackend:
    """Executes one shard's worth of reads for every query source.

    Parameters
    ----------
    config:
        The deployment config (addressing, slot geometry).
    cluster:
        The collector fleet the keys plane reads from.
    keys_fabric:
        The fabric collectors are attached to by role (endpoint = role).
    counter_stores / sketch_stores / ring_stores:
        Per-role primitive stores (may be empty dicts for keys-only
        deployments); each store carries its own fabric/NIC/demux.
    """

    def __init__(
        self,
        config: DartConfig,
        cluster: CollectorCluster,
        keys_fabric,
        counter_stores: Optional[Dict[int, object]] = None,
        sketch_stores: Optional[Dict[int, object]] = None,
        ring_stores: Optional[Dict[int, object]] = None,
    ) -> None:
        self.config = config
        self.cluster = cluster
        self.keys_fabric = keys_fabric
        self.counter_stores = counter_stores or {}
        self.sketch_stores = sketch_stores or {}
        self.ring_stores = ring_stores or {}
        self.addressing = DartAddressing(config)
        self._codec = config.slot_codec()
        #: (role, node_id) -> keys-plane reader; rebuilt on failover.
        self._keys_readers: Dict[Tuple[int, int], OneSidedReader] = {}
        #: Serial QP allocator for keys-plane readers: a role that moves
        #: away and back again needs a fresh QP number (the old one is
        #: still registered on the node's NIC).
        self._next_keys_qp = QUERY_KEYS_QP_BASE
        #: (source, role) -> store reader (store identity never moves).
        self._store_readers: Dict[Tuple[str, int], OneSidedReader] = {}

    # ------------------------------------------------------------------
    # Reader plumbing
    # ------------------------------------------------------------------

    def _keys_reader(self, shard: ShardAssignment) -> OneSidedReader:
        """The keys-plane reader for one shard, bound to its serving node."""
        cache_key = (shard.role, shard.node_id)
        reader = self._keys_readers.get(cache_key)
        if reader is None:
            # A failover changed the node behind this role: drop any
            # reader bound to the displaced node so responses can't be
            # misattributed, then bind to the new node's NIC and rkey.
            for stale in [
                k for k in self._keys_readers if k[0] == shard.role
            ]:
                del self._keys_readers[stale]
            node = self.cluster.node(shard.node_id)
            qp_number = self._next_keys_qp
            self._next_keys_qp += 1
            reader = OneSidedReader(
                self.keys_fabric,
                shard.role,
                node.nic,
                qp_number,
                ResponseDemux(),
                node.region.rkey,
            )
            self._keys_readers[cache_key] = reader
        return reader

    def _store_reader(self, source: str, role: int, store) -> OneSidedReader:
        """The reader for one primitive store shard (shares its demux)."""
        cache_key = (source, role)
        reader = self._store_readers.get(cache_key)
        if reader is None:
            reader = OneSidedReader(
                store.fabric,
                store.endpoint_id,
                store.nic,
                QUERY_STORE_QP_BASE + role,
                store.demux,
                store.region.rkey,
            )
            self._store_readers[cache_key] = reader
        return reader

    def read_reliable(
        self,
        reader: OneSidedReader,
        addresses: List[int],
        length: int,
        shard: ShardAssignment,
    ) -> List[bytes]:
        """Pipelined READs with bounded retry of the lost request legs.

        Returns one payload per address, complete or not at all: if any
        address is still unanswered after the retry budget the shard is
        declared :class:`ShardUnavailable` (the dead-node signature is
        *every* frame vanishing, and partial results would break the
        byte-identity contract with direct reads).
        """
        if not addresses:
            return []
        results: List[Optional[bytes]] = [None] * len(addresses)
        pending = list(range(len(addresses)))
        for _attempt in range(READ_ATTEMPTS):
            batch = [addresses[i] for i in pending]
            payloads = reader.read_run(batch, length)
            still_pending = []
            for index, payload in zip(pending, payloads):
                if payload is None:
                    still_pending.append(index)
                else:
                    results[index] = payload
            pending = still_pending
            if not pending:
                return [payload for payload in results if payload is not None]
        raise ShardUnavailable(shard.role, shard.node_id)

    # ------------------------------------------------------------------
    # Source row readers (one shard each)
    # ------------------------------------------------------------------

    def keys_rows(
        self,
        shard: ShardAssignment,
        keys: List[Key],
        policy: ReturnPolicy,
        lanes: np.ndarray,
    ) -> List[Dict[str, object]]:
        """Key-query rows for one shard: DART slot reads + return policy.

        ``lanes`` are the keys' folds, as :meth:`shards_for` handed them
        down.  Value-identical to
        :class:`~repro.core.client.DartQueryClient` on the same keys: the
        N slot addresses come from the shared addressing and the same
        :func:`~repro.core.policies.fold_slots` discards
        checksum-mismatched slots and applies the policy.
        """
        if not keys:
            return []
        reader = self._keys_reader(shard)
        config = self.config
        redundancy = config.redundancy
        checksums, addresses = self.addressing.reads_folded(lanes, shard.base_address)
        payloads = self.read_reliable(
            reader, addresses, config.slot_bytes, shard
        )
        rows = []
        for index, key in enumerate(keys):
            result = fold_slots(
                self._codec,
                payloads[index * redundancy : (index + 1) * redundancy],
                checksums[index],
                policy,
            )
            rows.append(
                {
                    "key": key_text(key),
                    "value": result.value,
                    "answered": result.answered,
                }
            )
        return rows

    def _estimate_rows(
        self,
        source: str,
        shard: ShardAssignment,
        keys: List[Key],
        lanes: np.ndarray,
    ) -> List[Dict[str, object]]:
        """Count-min estimate rows for one counter/sketch shard."""
        if not keys:
            return []
        stores = self.counter_stores if source == "counters" else self.sketch_stores
        store = stores.get(shard.role)
        if store is None:
            raise ShardUnavailable(shard.role, shard.node_id)
        reader = self._store_reader(source, shard.role, store)
        estimates = store.translator.addressing.estimates(
            lanes,
            store.translator.cell_reader(
                lambda addresses, length: self.read_reliable(
                    reader, addresses, length, shard
                )
            ),
        )
        return [
            {"key": key_text(key), "est": estimate}
            for key, estimate in zip(keys, estimates)
        ]

    def ring_rows(self, shard: ShardAssignment) -> List[Dict[str, object]]:
        """Append-ring rows for one shard: remote tail + readable window.

        Mirrors :meth:`~repro.primitives.clients.AppendQueryClient.snapshot`
        but with flushed, retried reads, so the window is complete (not
        best-effort) and the same records come back over any fabric.
        """
        store = self.ring_stores.get(shard.role)
        if store is None:
            raise ShardUnavailable(shard.role, shard.node_id)
        reader = self._store_reader("ring", shard.role, store)
        tail_raw = self.read_reliable(reader, [store.tail_address], 8, shard)
        tail = int.from_bytes(tail_raw[0], "big")
        records = read_ring_window(
            store,
            max(0, tail - store.capacity),
            tail,
            lambda addresses, length: self.read_reliable(reader, addresses, length, shard),
        )
        return [{"index": index, "record": record} for index, record in records]

    # ------------------------------------------------------------------
    # Entry point the planner's executor calls
    # ------------------------------------------------------------------

    def rows_for(
        self,
        source: str,
        shard: ShardAssignment,
        keys: List[Key],
        policy: ReturnPolicy,
        lanes: np.ndarray,
    ) -> List[Dict[str, object]]:
        """Dispatch one shard read by source name (the planner's seam)."""
        if source == "keys":
            return self.keys_rows(shard, keys, policy, lanes)
        if source in ("counters", "sketch"):
            return self._estimate_rows(source, shard, keys, lanes)
        if source == "ring":
            return self.ring_rows(shard)
        raise ValueError(f"unknown source {source!r}")

    def route(
        self, keys: Sequence[Key]
    ) -> Dict[int, Tuple[List[int], np.ndarray]]:
        """Fold ``keys`` once and group them by the shard (role) storing them.

        Returns ``{role: (positions into keys, those keys' lanes)}`` in
        first-seen role order.  This is the query side's only fold: the
        lanes travel with the keys from here on.
        """
        lanes = fold_keys(keys)
        positions: Dict[int, List[int]] = {}
        for position, role in enumerate(self.addressing.collectors_folded(lanes)):
            positions.setdefault(role, []).append(position)
        return {role: (where, lanes[where]) for role, where in positions.items()}

    def shards_for(
        self, shard_map: ShardMap, keys: Optional[List[Key]]
    ) -> Dict[int, Tuple[List[Key], np.ndarray]]:
        """Group candidate keys, with their lanes, by the shard storing them.

        ``None`` keys (key-less sources like ``ring``) map every shard to
        an empty candidate list -- the fan-out still covers the fleet.
        """
        if keys is None:
            no_lanes = np.empty(0, dtype=np.uint64)
            return {role: ([], no_lanes) for role in shard_map.roles()}
        return {
            role: ([keys[position] for position in where], lanes)
            for role, (where, lanes) in self.route(keys).items()
        }


#: A provider the planner polls for the epoch-current shard map.
ShardMapProvider = Callable[[], ShardMap]
