"""Span tracing of the layers from outside: patch public methods, time calls, fold.

For the traced pass only, the public methods listed in :data:`BOUNDARIES`
are swapped (on the class that defines them) for wrappers that record one
span per call: name, start, end, parent, the top-level operation it
belongs to, and how many frames/keys the call carried.  Spans stay in
memory; :meth:`SpanTracer.fold` turns them into per-name totals where
*self* time is a span's duration minus its children's.  A boundary that no
longer exists is skipped, so its metrics read zero rather than failing.

Module-level functions that callers bind with ``from x import f`` cannot
be patched this way; :func:`replay` times a direct call on the same inputs
instead.
"""

from __future__ import annotations

import importlib
import inspect
import json
from time import perf_counter_ns
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

#: The layers wall time is attributed to (module names under ``repro``).
LAYERS = (
    "hashing", "core", "switch", "fabric", "rdma", "mem", "collector",
    "primitives", "query", "obs",
)


def _sized(position: int) -> Callable:
    """Span size = ``len()`` of one positional argument (0 if unsized)."""
    def size(args) -> int:
        try:
            return len(args[position])
        except (TypeError, IndexError):
            return 0
    return size


def _report_frames(args) -> int:
    return args[0].config.redundancy


def _batch_frames(args) -> int:
    batch = args[1]
    return batch.count * batch.slot_indexes.shape[0]


#: (layer, module, class, method, size-of-call) -- size defaults to 1.
BOUNDARIES: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("core", "repro.core.batch", "ReportBatch", "from_items", _sized(2)),
    ("core", "repro.core.addressing", "DartAddressing", "resolve", None),
    ("core", "repro.core.client", "DartQueryClient", "query", None),
    ("mem", "repro.mem.slots", "SlotCodec", "decode", None),
    ("switch", "repro.switch.dart_switch", "DartSwitch", "report", _report_frames),
    ("switch", "repro.switch.dart_switch", "DartSwitch", "report_into", None),
    ("switch", "repro.switch.dart_switch", "DartSwitch", "encode_batch", _batch_frames),
    ("switch", "repro.switch.dart_switch", "DartSwitch", "report_batch_into", _sized(1)),
    *(
        ("fabric", module, cls, method, size)
        for module, cls in (
            ("repro.fabric.fabric", "InlineFabric"),
            ("repro.fabric.impaired", "ImpairedFabric"),
        )
        for method, size in (
            ("send", None), ("send_many", _sized(2)), ("send_batch", _sized(1)),
            ("flush", None), ("poll", None),
        )
    ),
    *(
        (layer, module, cls, method, size)
        for layer, module, cls in (
            ("collector", "repro.collector.collector", "Collector"),
            ("rdma", "repro.rdma.nic", "RdmaNic"),
        )
        for method, size in (
            ("receive_frame", None), ("ingest_many", None),
            ("ingest_batch", _sized(1)), ("transmit", None),
        )
    ),
    ("rdma", "repro.rdma.packets", "RoceV2Packet", "pack", None),
    ("rdma", "repro.rdma.packets", "RoceV2Packet", "unpack", None),
    ("mem", "repro.mem.region", "MemoryRegion", "write_offset_columnar", _sized(1)),
    ("mem", "repro.mem.region", "MemoryRegion", "dma_write", None),
    ("mem", "repro.mem.region", "MemoryRegion", "dma_read", None),
    ("mem", "repro.mem.region", "MemoryRegion", "dma_fetch_add", None),
    ("mem", "repro.mem.region", "MemoryRegion", "dma_fetch_add_many", _sized(1)),
    ("collector", "repro.collector.counters", "CounterStore", "add_many", _sized(1)),
    ("collector", "repro.collector.store", "DartStore", "put", None),
    ("collector", "repro.collector.store", "DartStore", "put_many", _sized(1)),
    ("collector", "repro.collector.store", "DartStore", "get", None),
    ("query", "repro.query.fleet", "QueryFleet", "count_many", _sized(1)),
    ("primitives", "repro.primitives.clients", "OneSidedReader", "read_run", _sized(1)),
    ("primitives", "repro.primitives.translator", "ResponseDemux", "poll", None),
    ("primitives", "repro.primitives.translator", "ResponseDemux", "take", None),
    ("query", "repro.query.backend", "FanoutBackend", "rows_for", None),
    ("query", "repro.query.backend", "FanoutBackend", "keys_rows", _sized(2)),
    ("query", "repro.query.backend", "FanoutBackend", "read_reliable", _sized(2)),
    ("query", "repro.query.service", "ResultCache", "get", None),
    ("query", "repro.query.service", "ResultCache", "put", None),
    ("query", "repro.query.service", "QueryService", "serve", None),
    ("query", "repro.query.service", "QueryService", "query", None),
)


class Stat(NamedTuple):
    """Folded totals for one span name."""

    count: int
    total_ns: int
    self_ns: int
    size: int


def _defining_class(cls: type, method: str) -> Optional[type]:
    for klass in cls.__mro__:
        if method in klass.__dict__:
            return klass
    return None


class SpanTracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # Parallel span columns (index = span id).
        self.name_id: List[int] = []
        self.start: List[int] = []
        self.end: List[int] = []
        self.parent: List[int] = []
        self.op: List[int] = []
        self.size: List[int] = []
        self._stack: List[int] = [-1]
        self._op = 0
        #: (class, method, original descriptor) for every patched attribute.
        self.patched: List[Tuple[type, str, object]] = []

    # -- recording ------------------------------------------------------

    def _name(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def _open(self, name_id: int, size: int) -> int:
        index = len(self.name_id)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.size.append(size)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self._stack.pop()

    def begin(self, kind: str, size: int = 1) -> None:
        """Open the root span of one top-level operation."""
        self._op += 1
        self._open(self._name(f"bench.{kind}"), size)

    def finish(self) -> None:
        """Close the root span opened by :meth:`begin`."""
        self._close(self._stack[-1])

    def _wrapper(self, name: str, function: Callable, size_of) -> Callable:
        name_id = self._name(name)
        open_span, close_span = self._open, self._close

        def traced(*args, **kwargs):
            index = open_span(name_id, 1 if size_of is None else size_of(args))
            try:
                return function(*args, **kwargs)
            finally:
                close_span(index)

        traced.__wrapped__ = function
        return traced

    async def _await(self, name_id: int, coroutine):
        index = self._open(name_id, 1)
        try:
            return await coroutine
        finally:
            self._close(index)

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        """Swap every existing boundary for its timing wrapper."""
        seen = set()
        for layer, module_name, class_name, method, size_of in BOUNDARIES:
            try:
                cls = getattr(importlib.import_module(module_name), class_name)
            except (ImportError, AttributeError):
                continue
            owner = _defining_class(cls, method)
            if owner is None or (owner, method) in seen:
                continue
            seen.add((owner, method))
            original = owner.__dict__[method]
            name = f"{layer}.{owner.__name__}.{method}"
            if isinstance(original, classmethod):
                patched = classmethod(
                    self._wrapper(name, original.__func__, size_of)
                )
            elif inspect.iscoroutinefunction(original):
                patched = self._async_wrapper(name, original)
            else:
                patched = self._wrapper(name, original, size_of)
            self.patched.append((owner, method, original))
            setattr(owner, method, patched)

    def _async_wrapper(self, name: str, function: Callable) -> Callable:
        name_id = self._name(name)

        def traced(*args, **kwargs):
            return self._await(name_id, function(*args, **kwargs))

        traced.__wrapped__ = function
        return traced

    def uninstall(self) -> None:
        """Put every original attribute back."""
        while self.patched:
            owner, method, original = self.patched.pop()
            setattr(owner, method, original)

    def __enter__(self) -> "SpanTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- folding --------------------------------------------------------

    def child_ns(self) -> List[int]:
        """Per span, the time covered by its direct children."""
        covered = [0] * len(self.name_id)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.end[index] - self.start[index]
        return covered

    def in_operation(self) -> List[bool]:
        """Per span, whether it ran under a ``bench.*`` root.

        The harness itself calls wrapped methods between operations (its
        slot model resolves keys); those spans belong to no operation and
        are left out of every total.
        """
        inside = []
        for index, parent in enumerate(self.parent):
            if parent < 0:
                inside.append(self.names[self.name_id[index]].startswith("bench."))
            else:
                inside.append(inside[parent])
        return inside

    def fold(self) -> Dict[str, Stat]:
        """Per-name count, total, self time and summed size."""
        covered = self.child_ns()
        inside = self.in_operation()
        rows: Dict[int, List[int]] = {}
        for index, name_id in enumerate(self.name_id):
            if not inside[index]:
                continue
            duration = self.end[index] - self.start[index]
            row = rows.setdefault(name_id, [0, 0, 0, 0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - covered[index]
            row[3] += self.size[index]
        return {self.names[name_id]: Stat(*row) for name_id, row in rows.items()}

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have an ancestor called ``ancestor``."""
        wanted = self._name_ids.get(name)
        above = self._name_ids.get(ancestor)
        if wanted is None or above is None:
            return 0
        found = 0
        for index, name_id in enumerate(self.name_id):
            if name_id != wanted:
                continue
            parent = self.parent[index]
            while parent >= 0 and self.name_id[parent] != above:
                parent = self.parent[parent]
            found += parent >= 0
        return found

    def write_sample(self, path: str, cap: int = 5000) -> None:
        """Write the first ``cap`` spans as JSON lines."""
        with open(path, "w") as out:
            for index in range(min(cap, len(self.name_id))):
                name = self.names[self.name_id[index]]
                out.write(json.dumps({
                    "id": index, "name": name, "layer": name.split(".")[0],
                    "start_ns": self.start[index], "end_ns": self.end[index],
                    "parent": self.parent[index], "op": self.op[index],
                    "size": self.size[index],
                }) + "\n")


def layer_self_ns(folded: Dict[str, Stat]) -> Dict[str, int]:
    """Self time per layer, plus ``bench`` (the drivers' own root spans)."""
    totals = dict.fromkeys(LAYERS + ("bench",), 0)
    for name, stat in folded.items():
        totals[name.split(".")[0]] += stat.self_ns
    return totals


def replay(function: Callable, batches: List[tuple]) -> Tuple[int, int]:
    """Time ``function(*args)`` over ``batches``; returns (total ns, calls)."""
    total = 0
    for args in batches:
        started = perf_counter_ns()
        function(*args)
        total += perf_counter_ns() - started
    return total, len(batches)
