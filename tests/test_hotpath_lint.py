"""Hot-path lint: batch code must not build per-report objects in loops.

The columnar datapath's whole point is that a batch of reports crosses
every layer as a handful of arrays.  The easiest way to lose that (and
the batch rates ``make bench-fabric-columnar`` gates) is a well-meaning edit that
re-introduces a per-report dataclass -- a ``RoceV2Packet`` here, a
``SlotWrite`` there -- inside a loop of a batch function.  This test
walks the AST of every hot-path module and fails on exactly that pattern,
with the offending ``file:line`` in the message.

Scalar reference paths (``report_into``, ``receive_frame``, ...) are
exempt: the rule applies only to functions whose names mark them as part
of the batch datapath (``*batch*`` / ``*columnar*`` / ``*_many``).  The
datapath's middle ``*_many`` tier (``send_many``, ``ingest_many``,
``write_offset_many``) is gone bar three uncalled loops kept as ``perf/``
trace boundaries; the ``*_many`` names that survive are
API-level batch entry points that ride the columnar path --
``DartStore.put_many``, ``CounterStore.add_many``,
``MemoryRegion.dma_fetch_add_many`` and the primitive translators'
``increment_many`` / ``append_many`` / ``update_many`` -- and stay under
the rule.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Modules on the columnar datapath, switch to store.
HOT_PATH_MODULES = [
    SRC / "core" / "batch.py",
    SRC / "switch" / "dart_switch.py",
    SRC / "fabric" / "fabric.py",
    SRC / "fabric" / "impaired.py",
    SRC / "rdma" / "frames.py",
    SRC / "rdma" / "nic.py",
    SRC / "rdma" / "qp.py",
    SRC / "mem" / "region.py",
    SRC / "collector" / "collector.py",
    SRC / "collector" / "store.py",
    SRC / "collector" / "counters.py",
    SRC / "primitives" / "translator.py",
    SRC / "primitives" / "clients.py",
    SRC / "primitives" / "append.py",
    SRC / "primitives" / "sketch.py",
]

#: Per-report object constructors and codecs.  Constructing any of these
#: once per report inside a batch loop defeats the columnar layout.
PER_REPORT_CONSTRUCTORS = {
    "SlotWrite",
    "SlotLocation",
    "RoceV2Packet",
    "EthernetHeader",
    "Ipv4Header",
    "UdpHeader",
    "Bth",
    "Reth",
    "AtomicEth",
    "unpack",  # RoceV2Packet.unpack and friends: per-frame decode
    "compute_icrc",  # the scalar iCRC; batch code uses icrc_rows
}


def _call_name(node: ast.Call) -> str:
    """The terminal identifier of a call target (``a.b.C(...)`` -> ``C``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _batch_functions(tree: ast.AST):
    """Every (async) function whose name marks it as batch-datapath code."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
            "batch" in node.name
            or "columnar" in node.name
            or node.name.endswith("_many")
        ):
            yield node


def _loop_violations(function: ast.AST, path: pathlib.Path):
    """Banned constructor calls inside any loop of ``function``."""
    for node in ast.walk(function):
        if not isinstance(node, (ast.For, ast.While)):
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.Call):
                name = _call_name(inner)
                if name in PER_REPORT_CONSTRUCTORS:
                    yield (
                        f"{path}:{inner.lineno}: {function.name}() calls "
                        f"{name}(...) inside a loop"
                    )


def test_hot_path_modules_exist():
    """The lint list tracks the real module layout."""
    for path in HOT_PATH_MODULES:
        assert path.is_file(), f"hot-path module moved or removed: {path}"


def test_no_per_report_objects_in_batch_loops():
    """Batch functions never allocate per-report objects per iteration."""
    violations = []
    for path in HOT_PATH_MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for function in _batch_functions(tree):
            violations.extend(_loop_violations(function, path))
    assert not violations, "\n".join(violations)


#: The read quadrant's batch bodies.  They craft nothing per row: requests
#: and responses come from a scalar-packed template patched column-wise,
#: so a packet object or a codec call anywhere in them -- loop or not --
#: is the per-slot round trip creeping back.
READ_BATCH_BODIES = [
    (SRC / "primitives" / "clients.py", "_read_run_batch"),
    (SRC / "rdma" / "nic.py", "_ingest_read_batch"),
    (SRC / "primitives" / "translator.py", "_file_batch"),
    (SRC / "query" / "backend.py", "keys_rows"),
]


def test_read_batch_bodies_build_no_packets():
    """No packet/header construction, ``pack`` or ``unpack`` in READ bodies."""
    banned = PER_REPORT_CONSTRUCTORS | {"pack", "Aeth"}
    violations = []
    for path, name in READ_BATCH_BODIES:
        tree = ast.parse(path.read_text(), filename=str(path))
        bodies = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == name
        ]
        assert len(bodies) == 1, f"{path}: expected one {name}()"
        violations.extend(
            f"{path}:{call.lineno}: {name}() calls {_call_name(call)}(...)"
            for call in ast.walk(bodies[0])
            if isinstance(call, ast.Call) and _call_name(call) in banned
        )
    assert not violations, "\n".join(violations)


def test_lint_catches_a_seeded_violation():
    """The checker itself works: a synthetic offender is flagged."""
    tree = ast.parse(
        "def encode_batch(items):\n"
        "    out = []\n"
        "    for key, value in items:\n"
        "        out.append(RoceV2Packet(key, value))\n"
        "    return out\n"
    )
    function = next(_batch_functions(tree))
    flagged = list(_loop_violations(function, pathlib.Path("seeded.py")))
    assert len(flagged) == 1 and "RoceV2Packet" in flagged[0]
