"""The DART switch egress logic: telemetry events -> RoCEv2 report frames.

This reproduces the P4 program of paper section 6 at functional fidelity:

1. a telemetry event triggers an I2E mirror carrying the raw key + data;
2. the native RNG picks ``n`` in [0, N) (or the caller enumerates all n);
3. the hash externs map ``(n, key)`` to a collector ID and memory address;
4. the collector lookup table (exact match-action) supplies the RoCEv2
   endpoint parameters (MAC/IP/QP/rkey/base address);
5. a register array yields the per-collector PSN;
6. the egress deparser emits a fully formed RoCEv2 WRITE frame, iCRC
   included.

Everything the frame contains is derived exactly as the prototype derives
it; the NIC model on the other end validates it byte-for-byte.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.addressing import DartAddressing, ResolvedKey
from repro.core.batch import ReportBatch
from repro.core.config import DartConfig
from repro.fabric.fabric import Fabric
from repro.hashing.hash_family import Key, stable_key_bytes
from repro.obs.metrics import CounterView
from repro.rdma.frames import (
    FrameBatch,
    FramePool,
    TemplateEncoder,
    scalar_template,
    stamp_frame,
)
from repro.rdma.packets import Bth, EthernetHeader, Ipv4Header, Opcode, Reth, RoceV2Packet
from repro.rdma.qp import PSN_MODULUS
from repro.switch.externs import MirrorSession, RegisterArray, TofinoRng
from repro.switch.pipeline import MatchActionTable, MatchKind, TableEntry

#: UDP source ports RoCEv2 reserves for requesters; used for ECMP entropy.
_UDP_SRC_BASE = 0xC000


class SwitchCounters(CounterView):
    """Per-switch diagnostic counters.

    A thin view over per-switch counters in the metrics registry
    (``switch_events_seen``, ``switch_reports_emitted``,
    ``switch_drops_no_collector_entry``); attribute reads stay live.
    """

    KIND = "DartSwitch"
    FIELDS = (
        ("events_seen", "c_events", "switch_events_seen",
         "Telemetry events offered to the report path."),
        ("reports_emitted", "c_reports", "switch_reports_emitted",
         "Report frames crafted (all copies)."),
        ("drops_no_collector_entry", "c_drops_no_entry", "switch_drops_no_collector_entry",
         "Reports dropped for lack of a collector lookup entry."),
    )


class DartSwitch:
    """A DART-enabled switch crafting telemetry report frames.

    Parameters
    ----------
    config:
        The shared deployment configuration (hash seed, N, layout, fleet).
    switch_id:
        This switch's identifier; stamped into source MAC/IP so collectors
        and traces can attribute reports.
    max_collectors:
        Capacity of the collector lookup table.  The paper notes ~20 bytes
        of SRAM per collector allows "tens of thousands of collectors".
    """

    def __init__(
        self,
        config: DartConfig,
        switch_id: int,
        max_collectors: int = 65536,
        fabric: Optional[Fabric] = None,
    ) -> None:
        self.config = config
        self.switch_id = switch_id
        #: The transport :meth:`report_into` and :meth:`report_batch_into`
        #: emit frames into; :meth:`report` returns raw frames regardless.
        self.fabric = fabric
        self.addressing = DartAddressing(config)
        self._codec = config.slot_codec()
        self._tracer = obs.get_tracer()
        # Switch counters carry a ``node="switch-<id>"`` label so fleet
        # views attribute report/drop counts to the emitting switch.
        with obs.get_registry().node_scope(f"switch-{switch_id}"):
            self.counters = SwitchCounters(obs.get_registry())

        # The "global collector lookup table" (paper section 6): exact
        # match on collector ID, action data = RoCEv2 endpoint parameters.
        self.collector_table = MatchActionTable(
            name="dart_collector_lookup",
            match_kinds=[MatchKind.EXACT],
            max_entries=max_collectors,
            entry_value_bytes=25,  # MAC+IP+QP+rkey+base address
        )
        # Per-collector RoCEv2 PSN counters in a register array.
        self.psn_registers = RegisterArray(
            size=max_collectors, width_bits=32, name="dart_psn"
        )
        self.rng = TofinoRng(seed=switch_id)
        self.mirror = MirrorSession(session_id=1, truncate_to=128)
        #: Recycled frame-matrix buffers for the columnar encode path.
        self.frame_pool = FramePool()
        #: Epoch tag of each installed lookup entry (role -> epoch).  A
        #: failover bumps the tag when it re-points the role, so tests and
        #: the controller can assert every switch runs the current version.
        self.endpoint_epochs: Dict[int, int] = {}

        self.src_mac = (
            f"02:00:{(switch_id >> 24) & 0xFF:02x}:{(switch_id >> 16) & 0xFF:02x}:"
            f"{(switch_id >> 8) & 0xFF:02x}:{switch_id & 0xFF:02x}"
        )
        self.src_ip = (
            f"172.{(switch_id >> 16) & 0x0F}.{(switch_id >> 8) & 0xFF}."
            f"{switch_id & 0xFF}"
        )

    def __repr__(self) -> str:
        return (
            f"DartSwitch(id={self.switch_id}, "
            f"collectors={len(self.collector_table)})"
        )

    # ------------------------------------------------------------------
    # Control-plane interface
    # ------------------------------------------------------------------

    def install_collector(
        self,
        collector_id: int,
        mac: str,
        ip: str,
        qp_number: int,
        rkey: int,
        base_address: int,
        initial_psn: int = 0,
        epoch: int = 0,
    ) -> None:
        """Install one collector lookup entry and initialise its PSN.

        ``collector_id`` is the keyspace *role* switches match on (what
        the addressing layer computes from a key); the endpoint fields
        describe whichever host currently serves it.  ``epoch`` tags the
        table version this entry belongs to.
        """
        self.collector_table.add_entry(
            TableEntry(
                match=(collector_id,),
                action="set_rdma_endpoint",
                params={
                    "mac": mac,
                    "ip": ip,
                    "qp_number": qp_number,
                    "rkey": rkey,
                    "base_address": base_address,
                },
            )
        )
        self.psn_registers.write(collector_id, initial_psn)
        self.endpoint_epochs[collector_id] = epoch

    def update_collector(
        self,
        collector_id: int,
        mac: str,
        ip: str,
        qp_number: int,
        rkey: int,
        base_address: int,
        initial_psn: int = 0,
        epoch: int = 0,
    ) -> Optional[Dict[str, Any]]:
        """Re-point one lookup entry at a new endpoint, live.

        This is the runtime half of the control plane -- a failover rewrites
        the role's row in place (remove + add, since exact-match installs
        reject duplicates) and resyncs the PSN register to the new host's
        expected PSN.  Returns the previous entry's parameters (plus its
        ``initial_psn`` and ``epoch``) so a partially applied plan can be
        rolled back, or None if the role had no entry.
        """
        previous: Optional[Dict[str, Any]] = None
        installed = self.collector_table.entry((collector_id,))
        if installed is not None:
            previous = dict(installed.params)
            previous["initial_psn"] = self.psn_registers.read(collector_id)
            previous["epoch"] = self.endpoint_epochs.get(collector_id, 0)
            self.collector_table.remove_entry((collector_id,))
        self.install_collector(
            collector_id=collector_id,
            mac=mac,
            ip=ip,
            qp_number=qp_number,
            rkey=rkey,
            base_address=base_address,
            initial_psn=initial_psn,
            epoch=epoch,
        )
        return previous

    def collector_endpoint(self, collector_id: int) -> Optional[Dict[str, Any]]:
        """The endpoint parameters currently installed for a role.

        Reads through the live table (the same lookup the data plane
        performs), so the answer always reflects the latest re-install --
        there is no cached copy a failover could leave stale.  Returns
        None when the role has no entry.
        """
        installed = self.collector_table.entry((collector_id,))
        if installed is None:
            return None
        return dict(installed.params)

    # ------------------------------------------------------------------
    # Data-plane: report crafting
    # ------------------------------------------------------------------

    def _craft_frames(
        self, resolved: ResolvedKey, value: bytes, copy_indexes: Iterable[int]
    ) -> List[Tuple[int, bytes]]:
        """The RoCEv2 WRITE frames of a resolved report, one per copy index.

        Every copy goes to the one collector the key resolved to, so the
        lookup, the template and the payload are per event; only the slot
        address and the PSN are per copy.
        """
        collector_id = resolved.collector_id
        endpoint = self._endpoint(collector_id)
        template = self._report_template(endpoint)
        payload = self._codec.encode(resolved.checksum, value)
        # ECMP entropy from the key, as requester NICs vary the source port.
        src_port = _UDP_SRC_BASE | (resolved.checksum & 0x3FFF)
        redundancy, frames = self.config.redundancy, []
        for copy_index in copy_indexes:
            if not 0 <= copy_index < redundancy:
                raise ValueError(f"copy_index {copy_index} outside [0, {redundancy})")
            fields = {
                "udp.src_port": src_port,
                "reth.virtual_address": self.addressing.slot_address(
                    endpoint["base_address"], resolved.slot_indexes[copy_index]
                ),
                "bth.psn": self.psn_registers.read_and_increment(collector_id) % PSN_MODULUS,
            }
            frames.append((collector_id, stamp_frame(template, fields, payload)))
        return frames

    def _endpoint(self, collector_id: int) -> Dict[str, Any]:
        """The collector lookup table's endpoint for ``collector_id`` (one
        data-plane lookup); a miss counts a drop and raises LookupError."""
        lookup = self.collector_table.lookup(collector_id)
        if lookup is None:
            self.counters.c_drops_no_entry.inc()
            raise LookupError(f"no collector lookup entry for collector {collector_id}")
        return lookup[1]

    def _report_template(self, endpoint: Dict[str, Any]) -> np.ndarray:
        """The deparser: the WRITE to ``endpoint`` with its per-report fields
        zeroed, which both granularities stamp; no switch state touched."""
        slot_bytes = self.config.slot_bytes
        return scalar_template(
            ("report", self.src_mac, self.src_ip, endpoint["mac"], endpoint["ip"],
             endpoint["qp_number"], endpoint["rkey"], slot_bytes),
            lambda: RoceV2Packet(
                eth=EthernetHeader(dst_mac=endpoint["mac"], src_mac=self.src_mac),
                ipv4=Ipv4Header(src_ip=self.src_ip, dst_ip=endpoint["ip"]),
                bth=Bth(opcode=int(Opcode.RC_RDMA_WRITE_ONLY), dest_qp=endpoint["qp_number"]),
                reth=Reth(rkey=endpoint["rkey"], dma_length=slot_bytes),
                payload=bytes(slot_bytes),
            ).pack(),
        )

    def _mirror_and_resolve(self, key: Key, value: bytes) -> ResolvedKey:
        """Clone the event into egress and resolve its key: one encoding, one fold.

        The mirror clone carries key + raw data; the canonical key bytes it
        needs are themselves a key that folds identically (``bytes`` encode
        as themselves), so addressing resolves them instead of re-encoding.
        """
        key_bytes = stable_key_bytes(key)
        self.mirror.clone(key_bytes + value)
        return self.addressing.resolve(key_bytes)

    def _emit(
        self, key: Key, value: bytes, copy_indexes: Iterable[int], noun: str, shown: int
    ) -> List[Tuple[int, bytes]]:
        """One event's frames for ``copy_indexes``, counted and traced
        (the span detail reads ``<noun>=<shown>``)."""
        self.counters.c_events.inc()
        frames = self._craft_frames(self._mirror_and_resolve(key, value), value, copy_indexes)
        self.counters.c_reports.inc(len(frames))
        tracer = self._tracer
        if tracer.enabled:
            trace_id = tracer.begin("switch_report", key=repr(key))
            tracer.span(
                trace_id,
                "switch.report",
                f"switch={self.switch_id} {noun}={shown}",
            )
            for _collector_id, frame in frames:
                tracer.bind_frame(frame, trace_id)
            # All bindings are made: the trace seals once the last frame
            # reaches (or is dropped by) the fabric.
            tracer.end(trace_id)
        return frames

    def report(self, key: Key, value: bytes) -> List[Tuple[int, bytes]]:
        """Emit the full redundant report: one frame per copy index.

        RDMA supports only one memory instruction per packet, so filling
        all N slots requires N packets (paper section 3.1); this models the
        switch generating all of them for one telemetry event.  Kept beside
        :meth:`encode_batch`: a batch of one costs 4-5x (DESIGN.md, "Batch of one").
        """
        redundancy = self.config.redundancy
        return self._emit(key, value, range(redundancy), "copies", redundancy)

    def report_single(self, key: Key, value: bytes) -> Tuple[int, bytes]:
        """Emit one frame with an RNG-chosen copy index.

        This is the literal prototype behaviour (paper section 6): the
        Tofino RNG picks n per mirrored report packet, and repeated events
        for the same key gradually fill the N slots.
        """
        copy_index = self.rng.next(self.config.redundancy)
        return self._emit(key, value, (copy_index,), "copy", copy_index)[0]

    # ------------------------------------------------------------------
    # Data-plane: columnar report crafting
    # ------------------------------------------------------------------

    def encode_batch(self, batch: ReportBatch) -> FrameBatch:
        """Craft every redundant frame of a report batch as one matrix.

        Frames come out in exactly the order the scalar path emits them --
        report-major, copy 0..N-1 per report -- with per-collector PSNs
        advancing through the same register cells.  Each row's bytes equal
        the corresponding scalar :meth:`report` frame (the equivalence
        suite diffs them), so downstream NIC validation cannot tell the
        paths apart: both stamp :meth:`_report_template`, memoised on the
        installed endpoint's values.

        Raises LookupError (after counting the drop) if any targeted
        collector has no lookup entry, like the scalar path does on its
        first frame.  The mirror clone is accounted per event but not
        materialised -- truncated clone bytes exist only on the scalar
        path.
        """
        config = self.config
        redundancy = config.redundancy
        slot_bytes = config.slot_bytes
        report_count = batch.count
        total = report_count * redundancy

        collector_ids = batch.collector_ids
        roles = np.unique(collector_ids)
        endpoints = [self._endpoint(role) for role in roles.tolist()]
        encoder = TemplateEncoder(*(self._report_template(e) for e in endpoints))

        self.counters.c_events.inc(report_count)
        self.mirror.c_clones.inc(report_count)
        self.counters.c_reports.inc(total)

        frame_collectors = np.repeat(collector_ids, redundancy)
        role_positions = np.searchsorted(roles, frame_collectors)
        checksums = np.repeat(batch.checksums, redundancy)
        slot_rows = batch.slot_indexes.T.reshape(-1)
        base_addresses = np.array(
            [endpoint["base_address"] for endpoint in endpoints],
            dtype=np.uint64,
        )

        # Per-collector PSNs: the register cell advances once per frame,
        # exactly as scalar read_and_increment does.
        psns = np.empty(total, dtype=np.uint64)
        for position, role in enumerate(roles.tolist()):
            rows = np.flatnonzero(role_positions == position)
            base_psn = self.psn_registers.read(int(role))
            sequence = (
                np.uint64(base_psn) + np.arange(len(rows), dtype=np.uint64)
            ) & np.uint64(0xFFFFFFFF)
            psns[rows] = sequence % np.uint64(PSN_MODULUS)
            self.psn_registers.write(int(role), base_psn + len(rows))

        return encoder.stamp(
            self.frame_pool,
            frame_collectors.astype(np.int64),
            {
                # ECMP entropy from the key checksum.
                "udp.src_port": np.uint64(_UDP_SRC_BASE)
                | (checksums & np.uint64(0x3FFF)),
                # Copy n of report i -> its resolved slot.
                "reth.virtual_address": base_addresses[role_positions]
                + slot_rows * np.uint64(slot_bytes),
                "bth.psn": psns,
            },
            payload=batch.payloads[np.repeat(np.arange(report_count), redundancy)],
            template_of=role_positions,
        )

    # ------------------------------------------------------------------
    # Data-plane: fabric egress
    # ------------------------------------------------------------------

    def _bound_fabric(self) -> Fabric:
        if self.fabric is None:
            raise RuntimeError(
                "switch has no fabric bound; pass fabric=... at construction "
                "before report_into()"
            )
        return self.fabric

    def report_into(self, key: Key, value: bytes) -> int:
        """Craft the full redundant report and emit it into the fabric.

        Returns the number of frames offered to the fabric.  Whether each
        frame was executed is the fabric's business (inline transports
        record it in their counters; buffered ones at flush time) --
        exactly the fire-and-forget contract of the hardware prototype.
        """
        fabric = self._bound_fabric()
        frames = self.report(key, value)
        for collector_id, frame in frames:
            fabric.send(collector_id, frame)
        return len(frames)

    def report_batch_into(
        self, items: Iterable[Tuple[Key, bytes]]
    ) -> int:
        """Columnar fast path: resolve, encode and emit a whole batch.

        One :class:`~repro.core.batch.ReportBatch` resolution, one frame
        matrix, one ``send_batch`` -- the datapath BENCH_fabric's
        ``packet_columnar`` mode measures.  Returns frames offered; an
        empty batch offers nothing and returns 0.  Under a tracer the
        whole frame batch is bound to one trace (the caller's active one,
        or its own) and records one span per layer.
        """
        fabric = self._bound_fabric()
        items = list(items) if not isinstance(items, (list, tuple)) else items
        if not items:
            return 0
        batch = ReportBatch.from_items(self.addressing, items)
        frame_batch = self.encode_batch(batch)
        offered = frame_batch.count
        tracer = self._tracer
        if not tracer.enabled:
            fabric.send_batch(frame_batch)
            return offered
        with tracer.joined("switch_batch", key=f"rows={offered}") as trace_id:
            tracer.span(
                trace_id,
                "switch.report_batch",
                f"switch={self.switch_id} rows={offered}",
            )
            # A head-sampled-out id leaves the batch unbound: no layer
            # below records or pays anything for it.
            tracer.bind_batch(frame_batch, trace_id)
            fabric.send_batch(frame_batch)
        return offered

    # ------------------------------------------------------------------
    # Resource accounting (paper section 6 claims)
    # ------------------------------------------------------------------

    def sram_bytes_per_collector(self) -> int:
        """On-switch SRAM needed per collector entry (~20 B in the paper)."""
        table_bytes = self.collector_table.entry_value_bytes
        psn_bytes = self.psn_registers.width_bits // 8
        return table_bytes + psn_bytes

    def sram_bytes_total(self) -> int:
        """SRAM currently held by DART state on this switch."""
        return (
            self.collector_table.sram_bytes
            + len(self.collector_table) * (self.psn_registers.width_bits // 8)
        )
