"""The benchmark's trace boundaries stay on the per-event paths.

``perf/trace.py`` attributes wall time to layers by wrapping the methods its
``BOUNDARIES`` names; a boundary a path stops entering reads zero in every
later run, with nothing failing.  So a fusion of layers that skips one (the
way a READ run once stopped crossing ``read_run``) must fail here instead:
one per-frame ``put`` and one point lookup each enter exactly the boundary
methods they entered when these tables were recorded, as many times.  The
benchmark is read as an import only; nothing of it runs.
"""

import collections
import importlib
import inspect

import pytest

from perf.trace import BOUNDARIES
from repro.collector.store import DartStore
from repro.fabric import InlineFabric

from .rigs import KEYS, POINT, fleet_rig, small_config

#: Boundary method -> calls, for one warm two-copy packet-level ``put``.
PUT_CROSSINGS = {
    "DartStore.put": 1, "DartSwitch.report_into": 1, "DartSwitch.report": 1,
    "DartAddressing.resolve": 1, "InlineFabric.send": 2, "Collector.receive_frame": 2,
    "RdmaNic.receive_frame": 2, "MemoryRegion.dma_write": 2,
}
#: The same for one served point lookup, cache bypassed: two READs, one
#: per copy, and their responses through the demux.
POINT_CROSSINGS = {
    "QueryService.serve": 1, "FanoutBackend.keys_rows": 1, "InlineFabric.send": 2,
    "Fabric.flush": 1, "Fabric.poll": 1, "Collector.receive_frame": 2,
    "RdmaNic.receive_frame": 2, "MemoryRegion.dma_read": 2, "Collector.transmit": 1,
    "RdmaNic.transmit": 1, "ResponseDemux.poll": 1, "ResponseDemux.take": 1,
    "SlotCodec.decode": 2,
}


def crossings(monkeypatch, operation):
    """``{"Class.method": calls}`` of every boundary ``operation()`` enters
    (it looks its entry point up when called, so the wrapper is what runs)."""
    counts = collections.Counter()
    wrapped = set()
    for _layer, module, class_name, method, _size in BOUNDARIES:
        cls = getattr(importlib.import_module(module), class_name)
        owner = next(klass for klass in cls.__mro__ if method in klass.__dict__)
        original = owner.__dict__[method]
        if (owner, method) in wrapped or not inspect.isfunction(original):
            continue
        wrapped.add((owner, method))

        def counted(*call_args, _name=f"{owner.__name__}.{method}", _original=original, **kwargs):
            counts[_name] += 1
            return _original(*call_args, **kwargs)

        monkeypatch.setattr(owner, method, counted)
    operation()
    monkeypatch.undo()
    return dict(counts)


def test_a_per_frame_put_crosses_every_boundary_it_did():
    store = DartStore(small_config(num_collectors=4, redundancy=2), packet_level=True,
                      fabric=InlineFabric())
    store.put(("warm", 0), b"v")
    assert crossings(pytest.MonkeyPatch(), lambda: store.put(("flow", 1), b"value")) == PUT_CROSSINGS


def test_a_point_lookup_crosses_every_boundary_it_did():
    service, _direct = fleet_rig()
    service.serve(POINT, keys=[KEYS[7]], use_cache=False)
    assert crossings(
        pytest.MonkeyPatch(), lambda: service.serve(POINT, keys=[KEYS[7]], use_cache=False)
    ) == POINT_CROSSINGS
