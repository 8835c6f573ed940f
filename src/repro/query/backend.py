"""One-sided read execution behind the shared response demux.

The planner decides *what* to read from *which* shard; this module does
the reading: a keys query's shards in one pass (:meth:`FanoutBackend.keys_rows`),
any other source shard by shard.  For every keyspace shard it keeps one
:class:`~repro.primitives.clients.OneSidedReader` per read substrate,
built against the shard's *serving node* (its NIC, rkey, base address)
and rebuilt automatically when a failover moves the role to a standby --
the reader cache is keyed on ``(role, node_id)``, so a stale binding can
never survive a shard-map change.

Two properties the query front end depends on:

- **Pipelined, flushed reads.**  Everything goes through
  :func:`~repro.primitives.clients.read_runs` (requests, flush, drain),
  so the same backend works over Inline, Buffered *and* Impaired fabrics
  -- an unflushed single READ would deadlock a deferring fabric.
- **Bounded retry against request-leg loss.**  The impaired fabric drops
  request frames; the response leg is modelled lossless, so a missing
  payload means the request never executed and re-issuing is safe
  (reads are idempotent).  :meth:`FanoutBackend._read_shards` retries
  only the missing addresses, every shard's together; a shard whose reads
  *never* complete (a dead node drops every frame) is a
  :class:`ShardUnavailable`, which the service surfaces as a
  partial-shard failure while the other shards' rows stand.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.collector.collector import CollectorCluster
from repro.control.shards import ShardAssignment, ShardMap
from repro.core.addressing import _ARRAY_MIN_LANES, DartAddressing
from repro.core.config import DartConfig
from repro.core.policies import ReturnPolicy, fold_matrix, fold_slots
from repro.hashing.hash_family import Key, fold_key, fold_keys
from repro.primitives.clients import OneSidedReader, Run, read_ring_window, read_runs
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


class ShardLanes(NamedTuple):
    """One shard's keys in the query's one resolve pass: their ``uint64``
    lanes and checksums, and ``(redundancy, n)`` slot indexes, key ``i``
    in column ``i`` (:meth:`DartAddressing.resolve_folded`'s layout).

    A shard of ``_ARRAY_MIN_LANES`` keys or more holds numpy arrays, a
    shorter one the same values as lists of ints (its fold is key by key).
    """

    lanes: Union[np.ndarray, List[int]]
    checksums: Union[np.ndarray, List[int]]
    slot_indexes: Union[np.ndarray, List[List[int]]]


def key_text(key: Key) -> str:
    """The textual form of a key, as query predicates see the ``key`` field."""
    if isinstance(key, str):
        return key
    if isinstance(key, bytes):
        return key.decode("latin-1")
    return repr(key)


class FanoutBackend:
    """Executes a query's shard reads for every query source.

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
        addresses: Sequence[int],
        length: int,
        shard: ShardAssignment,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`OneSidedReader.read_run`, retrying only the unanswered rows.

        Complete or not at all: a row still unanswered after the retry
        budget declares the shard :class:`ShardUnavailable` (the dead-node
        signature is *every* frame vanishing, and partial results would
        break the byte-identity contract with direct reads).
        """
        payloads, answered, failed = self._read_shards([(reader, addresses)], length)
        if failed:
            raise ShardUnavailable(shard.role, shard.node_id)
        return payloads, answered

    def _read_shards(
        self, runs: Sequence[Run], length: int
    ) -> Tuple[np.ndarray, np.ndarray, List[int]]:
        """:func:`read_runs` of one run per shard, then rounds re-reading every
        shard's unanswered rows together.  Each run has its own
        :data:`READ_ATTEMPTS`; the indexes of runs still unanswered after them
        come back as ``failed``, and every other run's rows are complete."""
        payloads, answered = read_runs(runs, length)
        failed: List[int] = []
        bounds = None
        while np.count_nonzero(answered) < len(answered):
            if bounds is None:  # the first retry round
                bounds = list(accumulate((len(addresses) for _r, addresses in runs), initial=0))
                attempts = [1] * len(runs)
            retry = []
            for index, (start, stop) in enumerate(zip(bounds, bounds[1:])):
                lost = np.flatnonzero(~answered[start:stop])
                if len(lost) and index not in failed:
                    if attempts[index] == READ_ATTEMPTS:
                        failed.append(index)
                    else:
                        attempts[index] += 1
                        retry.append((index, lost))
            if not retry:
                break
            rows = np.concatenate([bounds[index] + lost for index, lost in retry])
            payloads[rows], answered[rows] = read_runs([
                (runs[index][0], np.asarray(runs[index][1], dtype=np.uint64)[lost].tolist())
                for index, lost in retry
            ], length)
        return payloads, answered, failed

    # ------------------------------------------------------------------
    # Source row readers
    # ------------------------------------------------------------------

    def keys_rows(
        self,
        shards: Sequence[ShardAssignment],
        keys: Sequence[Key],
        policy: ReturnPolicy,
        resolved: Sequence[ShardLanes],
    ) -> List[Union[List[Dict[str, object]], ShardUnavailable]]:
        """Key-query rows for every shard of a plan, read in one pass.

        ``keys`` are the shards' keys one shard after another, ``resolved[i]``
        shard ``i``'s slice of :meth:`shards_for`'s pass.  Every shard's N
        slots per key leave as one request matrix (:meth:`_read_shards`) and
        come back as one payload matrix, folded at once: as arrays
        (``fold_matrix``) from ``_ARRAY_MIN_LANES`` keys on, key by key
        (``fold_slots``, the reference) below.  Value-identical to
        :class:`~repro.core.client.DartQueryClient`.  Returns each shard's
        rows, or the :class:`ShardUnavailable` of one that never answered.
        """
        if not keys:  # every key pruned: no shard to read
            return [[] for _shard in shards]
        codec, redundancy, slot_bytes = self._codec, self.config.redundancy, self.config.slot_bytes
        readers = list(map(self._keys_reader, shards))
        sizes = [len(lanes.checksums) for lanes in resolved]
        bounds = list(accumulate(sizes, initial=0))
        if len(keys) < _ARRAY_MIN_LANES:  # lists all through, key-major, copy-minor
            runs = [(reader, [
                shard.base_address + slot * slot_bytes
                for copies in zip(*lanes.slot_indexes) for slot in copies
            ]) for reader, shard, lanes in zip(readers, shards, resolved)]
            payloads, _answered, failed = self._read_shards(runs, slot_bytes)
            raw = payloads.tobytes()  # one bytes object sliced per slot
            copies = [raw[at : at + slot_bytes] for at in range(0, len(raw), slot_bytes)]
            checksums = [checksum for lanes in resolved for checksum in lanes.checksums]
            folded = (
                fold_slots(codec, copies[at : at + redundancy], checksum, policy)
                for at, checksum in zip(range(0, len(copies), redundancy), checksums)
            )
            folded = ((result.value, result.answered) for result in folded)
        else:  # every shard's addresses in one pass, each run a slice of them
            slots = np.concatenate(
                [np.asarray(lanes.slot_indexes, np.uint64) for lanes in resolved], axis=1
            )
            bases = np.repeat(np.array([shard.base_address for shard in shards], np.uint64), sizes)
            addresses = (slots * np.uint64(slot_bytes) + bases).T.ravel()
            payloads, _answered, failed = self._read_shards([
                (reader, addresses[redundancy * start : redundancy * stop])
                for reader, start, stop in zip(readers, bounds, bounds[1:])
            ], slot_bytes)
            checksums = np.concatenate(
                [np.asarray(lanes.checksums, np.uint64) for lanes in resolved]
            )
            copies = payloads.reshape(len(keys), redundancy, slot_bytes)
            folded = zip(*fold_matrix(codec, copies, checksums, policy))
        rows = [
            {"key": key_text(key), "value": value, "answered": ok}
            for key, (value, ok) in zip(keys, folded)
        ]
        if len(shards) == 1 and not failed:  # a point lookup's one shard
            return [rows]
        return [
            ShardUnavailable(shard.role, shard.node_id) if index in failed
            else rows[start:stop]
            for index, (shard, start, stop) in enumerate(zip(shards, bounds, bounds[1:]))
        ]

    def _estimate_rows(
        self,
        source: str,
        shard: ShardAssignment,
        keys: Sequence[Key],
        lanes: Union[np.ndarray, List[int]],
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

        The READs of a fresh :meth:`~repro.primitives.clients.AppendQueryClient.follow`,
        but retried, so the window is complete (not best-effort) and the
        same records come back over any fabric.
        """
        store = self.ring_stores.get(shard.role)
        if store is None:
            raise ShardUnavailable(shard.role, shard.node_id)
        reader = self._store_reader("ring", shard.role, store)
        tail_raw, _answered = self.read_reliable(reader, [store.tail_address], 8, shard)
        tail = int(tail_raw.view(">u8")[0, 0])
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
        keys: Sequence[Key],
        resolved: Optional[ShardLanes],
    ) -> List[Dict[str, object]]:
        """Dispatch one shard read by source name (keys: :meth:`keys_rows`)."""
        if source in ("counters", "sketch"):
            return self._estimate_rows(source, shard, keys, resolved.lanes)
        if source == "ring":
            return self.ring_rows(shard)
        raise ValueError(f"unknown source {source!r}")

    def route(
        self, keys: Sequence[Key]
    ) -> Dict[int, Tuple[List[int], np.ndarray]]:
        """Fold ``keys`` once and group them by the shard (role) storing them.

        Returns ``{role: (positions into keys, those keys' lanes)}`` in
        first-seen role order: the collector alone, for callers that
        derive no slot (counting, direct estimates).
        """
        lanes = fold_keys(keys)
        return {
            role: (where, lanes[where])
            for role, where in _by_role(self.addressing.collectors_folded(lanes)).items()
        }

    def shards_for(
        self, shard_map: ShardMap, keys: Optional[List[Key]]
    ) -> Dict[int, Tuple[List[Key], Optional[ShardLanes]]]:
        """A served query's one fold and one resolve pass, grouped by its
        collector column: ``{role: (keys, their ShardLanes)}``.

        ``None`` keys (key-less sources like ``ring``) map every shard to
        an empty candidate list -- the fan-out still covers the fleet.
        A run shorter than ``_ARRAY_MIN_LANES`` resolves lane by lane
        straight into lists, so a point lookup builds no array before its
        READs.
        """
        if keys is None:
            return {role: ([], None) for role in shard_map.roles()}
        grouped = {}
        if len(keys) < _ARRAY_MIN_LANES:
            for key in keys:
                lane = fold_key(key)
                entry = self.addressing.resolve_lane(lane)
                mine, (lanes, checksums, slots) = grouped.setdefault(
                    entry.collector_id,
                    ([], ShardLanes([], [], [[] for _copy in entry.slot_indexes])),
                )
                mine.append(key)
                lanes.append(lane)
                checksums.append(entry.checksum)
                for copy, slot in zip(slots, entry.slot_indexes):
                    copy.append(slot)
            return grouped
        lanes = fold_keys(keys)
        collectors, checksums, slots = self.addressing.resolve_folded(lanes)
        # One stable sort groups the keys by role, each role a run of it.
        order = np.argsort(collectors, kind="stable")
        roles, starts = np.unique(collectors[order], return_index=True)
        lanes, checksums, slots = lanes[order], checksums[order], slots[:, order]
        ordered = [keys[position] for position in order.tolist()]
        bounds = [*starts.tolist(), len(keys)]
        for role, start, stop in zip(roles.tolist(), bounds, bounds[1:]):
            shard = ShardLanes(lanes[start:stop], checksums[start:stop], slots[:, start:stop])
            if stop - start < _ARRAY_MIN_LANES:
                shard = ShardLanes._make(part.tolist() for part in shard)
            grouped[role] = (ordered[start:stop], shard)
        return grouped


def _by_role(collectors: List[int]) -> Dict[int, List[int]]:
    """Positions grouped by collector role, roles in first-seen order."""
    positions: Dict[int, List[int]] = {}
    for position, role in enumerate(collectors):
        positions.setdefault(role, []).append(position)
    return positions


#: A provider the planner polls for the epoch-current shard map.
ShardMapProvider = Callable[[], ShardMap]
