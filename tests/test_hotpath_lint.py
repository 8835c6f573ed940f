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
``increment_many`` / ``append_many`` -- and stay under the rule.

The receivers (the NIC and the response demux) decode every frame
through its memoised header plan: no ``RoceV2Packet.unpack`` or
``header_mask`` call in them, and a frame body decodes in one pass
(``decode_frame``), with no plan, field or iCRC-image step of its own.

The second half pins where the RoCEv2 wire format is written down: one
module (``repro.rdma.layout``) states offsets and widths, everything else
names fields; each frame shape is planned once (a ``FramePlan``, built
where the shape is fixed), stamped into a batch (``TemplateEncoder.stamp``
over the plan's row) or into one frame (the plan's ``stamp``, or ``fix``
then ``finish``), so nothing else computes a batch iCRC and no code
outside the codec and the P4 exhibit builds header dataclasses but a
plan's construction.  The per-event report body derives nothing its
endpoint fixes: no plan, packet, ``pack``, ``slot_address`` or dict in it.

The third pins that watching does not steer: no body can ask a tracer
for a ``granularity`` to pick its path by, and a stage is timed by the
registry's one stage timer -- no second clock, profiler capture or
``stage_seconds`` series spelled at the site.

The fourth keeps a lossy batch a batch: ``ImpairedFabric.send_batch``
delivers, copies and materialises nothing inside a loop over rows.

The fifth keeps the per-row kernels in C: the iCRC's seeded ``zlib.crc32``
map and the region's columnar scatter and gather hold no Python loop, and
the region indexes its strided window, never a ``count x width`` index
matrix.

The sixth keeps one way onto the wire: outside ``dart_switch.py`` (whose
``report_into`` is the switch's frame entry) no module hands a
``report(...)`` frame to ``fabric.send``.

The seventh keeps one owner of the lookup table: outside
``dart_switch.py`` no module names ``collector_table``; rows go in,
change and roll back through ``install_collector`` / ``update_collector``.

The eighth gives the tests' helpers one home: no ``tests/test_*.py``
imports from another ``test_*`` module; what they share is in
``tests/rigs.py``.

The last is the Options rule: a defaulted parameter of a public callable
is set by some caller outside ``tests/``, or it is a constant.
"""

import ast
import functools
import pathlib
import re

from . import reachability_audit as audit
from .rigs import TEMPLATE_SITES

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
    "ResolvedKey",
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


_call_name = audit.call_name


@functools.lru_cache(maxsize=None)
def _parsed(path: pathlib.Path) -> ast.AST:
    """One parse per module for the whole lint (no rule mutates a tree)."""
    return ast.parse(path.read_text(), filename=str(path))


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
        tree = _parsed(path)
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
        tree = _parsed(path)
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


#: The per-event report body.  Everything a report's endpoint fixes -- its
#: template, field offsets and the CRC of its constant headers -- is derived
#: when the lookup row is installed (its ``FramePlan``); per event the body
#: looks the row up and patches.  No plan, packet or slot-address derivation
#: in it, and no dict built for a copy's fields.
PER_EVENT_BODIES = [(SRC / "switch" / "dart_switch.py", "DartSwitch.report")]
PER_EVENT_BANNED = {"FramePlan", "RoceV2Packet", "pack", "slot_address"}
#: The per-frame receive bodies.  A received frame is decoded and its iCRC
#: checked in one pass (``packets.decode_frame``), memoised on what its
#: header fixes: no structural re-parse, field re-read, iCRC image or packet
#: in them.
PER_FRAME_RECEIVERS = [
    (SRC / "rdma" / "nic.py", "RdmaNic.receive_frame"),
    (SRC / "rdma" / "nic.py", "RdmaNic._execute"),
    (SRC / "primitives" / "translator.py", "ResponseDemux._file_frame"),
]
PER_FRAME_BANNED = {"header_plan", "frame_fields", "_icrc_image", "RoceV2Packet", "unpack"}


def _per_event_violations(function: ast.AST, path, banned=PER_EVENT_BANNED | {"dict"}):
    """Banned calls, and dict builds, in one per-event body."""
    for node in ast.walk(function):
        if isinstance(node, ast.Call) and _call_name(node) in banned:
            yield f"{path}:{node.lineno}: {function.name}() calls {_call_name(node)}(...)"
        elif isinstance(node, (ast.Dict, ast.DictComp)):
            yield f"{path}:{node.lineno}: {function.name}() builds a dict"


def test_per_event_report_body_derives_no_shape():
    violations = []
    for path, name in PER_EVENT_BODIES:
        violations.extend(_per_event_violations(_function(path, name), path))
    assert not violations, "\n".join(violations)


def test_per_frame_receive_bodies_decode_once():
    violations = []
    for path, name in PER_FRAME_RECEIVERS:
        violations.extend(_per_event_violations(_function(path, name), path, PER_FRAME_BANNED))
    assert not violations, "\n".join(violations)


def test_per_event_lint_catches_seeded_violations():
    tree = ast.parse(
        "def report(self, key, value, copy_index=None):\n"
        "    plan = FramePlan(self._endpoint(role), 'bth.psn')\n"
        "    for copy_index in copy_indexes:\n"
        "        fields = {'bth.psn': next_psn(role)}\n"
        "        address = self.addressing.slot_address(base, slot)\n"
        "        frame = RoceV2Packet(bth=Bth(psn=psn)).pack()\n"
        "        extra = dict(fields)\n"
        "        frames.append((role, plan.finish(event, psn, address)))\n"
    )
    flagged = list(_per_event_violations(tree.body[0], "seeded.py"))
    assert sorted(flagged) == sorted([
        "seeded.py:2: report() calls FramePlan(...)",
        "seeded.py:4: report() builds a dict",
        "seeded.py:5: report() calls slot_address(...)",
        "seeded.py:6: report() calls RoceV2Packet(...)",
        "seeded.py:6: report() calls pack(...)",
        "seeded.py:7: report() calls dict(...)",
    ])


def test_per_frame_receive_lint_catches_seeded_violations():
    tree = ast.parse(
        "def receive_frame(self, frame):\n"
        "    opcode, dest_qp, end = header_plan(frame)\n"
        "    psn, *fields, payload = frame_fields(frame, opcode, end)\n"
        "    crc = zlib.crc32(_icrc_image(frame[14:end - 4]))\n"
        "    packet = RoceV2Packet.unpack(frame)\n"
        "    decoded = decode_frame(frame)\n"
    )
    flagged = list(_per_event_violations(tree.body[0], "seeded.py", PER_FRAME_BANNED))
    assert sorted(flagged) == sorted([
        "seeded.py:2: receive_frame() calls header_plan(...)",
        "seeded.py:3: receive_frame() calls frame_fields(...)",
        "seeded.py:4: receive_frame() calls _icrc_image(...)",
        "seeded.py:5: receive_frame() calls unpack(...)",
    ])


#: The receivers: every frame they take is decoded through its header plan
#: (``packets.header_plan``), never re-parsed whole or re-masked.
PLAN_DECODERS = [SRC / "rdma" / "nic.py", SRC / "primitives" / "translator.py"]


def _unplanned_decodes(tree: ast.AST, path):
    """Calls of ``RoceV2Packet.unpack`` or ``header_mask`` in one parsed module."""
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        whole = (
            isinstance(func, ast.Attribute) and func.attr == "unpack"
            and isinstance(func.value, ast.Name) and func.value.id == "RoceV2Packet"
        )
        if whole or _call_name(call) == "header_mask":
            yield f"{path}:{call.lineno}: {ast.unparse(func)}(...) outside the header plan"


def test_receivers_decode_through_the_header_plan():
    violations = [
        violation
        for path in PLAN_DECODERS
        for violation in _unplanned_decodes(_parsed(path), path)
    ]
    assert not violations, "\n".join(violations)


def test_plan_lint_catches_a_seeded_violation():
    tree = ast.parse(
        "def receive_frame(self, frame, frames):\n"
        "    packet = RoceV2Packet.unpack(frame)\n"
        "    shaped = header_mask(frames, opcode)\n"
        "    reflected = _REFLECTED.unpack_from(frame)\n"
        "    plan = header_plan(frame)\n"
    )
    assert sorted(_unplanned_decodes(tree, "seeded.py")) == [
        "seeded.py:2: RoceV2Packet.unpack(...) outside the header plan",
        "seeded.py:3: header_mask(...) outside the header plan",
    ]


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


# ---------------------------------------------------------------------------
# One wire layout, one template-and-patch encoder
# ---------------------------------------------------------------------------

LAYOUT_MODULE = SRC / "rdma" / "layout.py"

#: Column helpers that take a raw frame offset (the named-field ones,
#: ``read_field`` / ``write_field``, take a ``"header.field"`` string).
_OFFSET_HELPER = re.compile(r"^(read_be\d*|write_be\d*|write_le32)$")


def _positive_int(node) -> bool:
    return (
        isinstance(node, ast.Constant)
        and type(node.value) is int
        and node.value > 0
    )


def _spells_a_column_number(node) -> bool:
    """``[9, 16, OFF]`` / ``6:12, 34`` -- a bracketed list with a literal in it."""
    return isinstance(node, (ast.List, ast.Tuple, ast.Slice)) and any(
        _positive_int(part) for part in ast.walk(node)
    )


def _layout_violations(tree: ast.AST, path):
    """Wire offsets or widths spelled as literals in one parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if (
                _OFFSET_HELPER.match(name)
                and len(node.args) > 1
                and any(_positive_int(part) for part in ast.walk(node.args[1]))
            ):
                yield f"{path}:{node.lineno}: {name}() at a literal offset"
            if name == "Struct" and node.args and isinstance(node.args[0], ast.Constant):
                if "rdma" in pathlib.Path(path).parts:
                    yield f"{path}:{node.lineno}: struct format spelled out"
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Tuple)
            and getattr(node.value, "attr", "") != "r_"
        ):
            # matrix[rows, a:b] with a literal column bound.
            for index in node.slice.elts[1:]:
                if isinstance(index, ast.Slice) and (
                    _positive_int(index.lower) or _positive_int(index.upper)
                ):
                    yield f"{path}:{node.lineno}: literal column bound"
    for node in getattr(tree, "body", []):
        if not isinstance(node, ast.Assign):
            continue
        named = any(
            isinstance(target, ast.Name) and target.id.endswith("_COLUMNS")
            for target in node.targets
        )
        value = node.value
        literal = (
            isinstance(value, ast.Call)
            and _call_name(value) == "array"
            and value.args
            and _spells_a_column_number(value.args[0])
        ) or (
            isinstance(value, ast.Subscript)
            and isinstance(value.value, ast.Attribute)
            and value.value.attr == "r_"
            and _spells_a_column_number(value.slice)
        )
        if named and literal:
            yield f"{path}:{node.lineno}: column set spelled as literals"


def _source_modules():
    return sorted(path for path in SRC.rglob("*.py") if path != LAYOUT_MODULE)


def test_only_the_layout_module_states_offsets():
    """Outside ``rdma/layout.py`` the wire format is named, never numbered."""
    assert LAYOUT_MODULE.is_file()
    violations = []
    for path in _source_modules():
        tree = _parsed(path)
        violations.extend(_layout_violations(tree, path.relative_to(SRC.parent)))
    assert not violations, "\n".join(violations)


def test_one_encoder_computes_batch_icrcs():
    """``icrc_rows`` is called by the encoder and by ``icrc_ok``, full stop."""
    callers = []
    for path in [LAYOUT_MODULE, *_source_modules()]:
        tree = _parsed(path)
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                callers.extend(
                    f"{path.name}:{function.name}"
                    for call in ast.walk(function)
                    if isinstance(call, ast.Call) and _call_name(call) == "icrc_rows"
                )
    assert sorted(callers) == ["frames.py:icrc_ok", "frames.py:stamp"]


def test_one_scalar_icrc():
    """``_icrc_of_wire`` is the iCRC of every scalar frame: packed, parsed or stamped."""
    callers = sorted(
        f"{path.name}:{function.name}"
        for path in _source_modules()
        for function in ast.walk(_parsed(path))
        if isinstance(function, ast.FunctionDef)
        for call in ast.walk(function)
        if isinstance(call, ast.Call) and _call_name(call) == "_icrc_of_wire"
    )
    assert callers == [
        "packets.py:compute_icrc", "packets.py:header_plan", "packets.py:pack",
        "packets.py:unpack",
    ]


#: Private templates, per-site crafters and stampers earlier encoders kept.
RETIRED_TEMPLATES = (
    "_frame_template", "_fetch_add_template", "_record_write_template", "_read_response_template",
    "_atomic_template", "_write_template", "_templates", "_read_templates", "_pack_write",
    "_craft_read_response", "_blank_read_response", "_enqueue_read_response",
    "_enqueue_atomic_response", "stamp_frame", "_FRAME_FIELDS", "ReportPlan", "scalar_template",
    "_TEMPLATE_MEMO", "_report_template", "_add_template", "_record_template",
    "_request_template", "_response_template", "_put_template",
)


def _functions(tree: ast.AST):
    """``(qualified name, node)`` of every module-level function and method."""
    for node in tree.body:
        for function in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(function, ast.FunctionDef):
                yield (f"{node.name}." if function is not node else "") + function.name, function


def _function(path: pathlib.Path, name: str) -> ast.FunctionDef:
    """The one function or method ``name`` (or ``"Class.method"``) of a module."""
    (body,) = [node for qual, node in _functions(_parsed(path)) if name in (qual, node.name)]
    return body


def _names_used(function: ast.AST) -> set:
    """Every called name and every attribute read in ``function``."""
    return {
        _call_name(node) if isinstance(node, ast.Call) else node.attr
        for node in ast.walk(function)
        if isinstance(node, (ast.Call, ast.Attribute))
    }


def test_every_site_builds_its_plans_where_the_shape_is_fixed():
    """Each site's builder is the only place its plans are built; its batch
    body, if it has one, stamps a matrix from a plan, and its frame body a
    frame (``stamp``, or ``finish`` of what ``fix`` laid out)."""
    for path, builder, batch, frame in TEMPLATE_SITES:
        built = _function(path, builder)
        # What the bodies reach the plans by: the builder, or where it stores them.
        plans = {built.name} | {
            stored.attr
            for node in ast.walk(built)
            if isinstance(node, ast.Assign) and "FramePlan" in _names_used(node.value)
            for target in node.targets
            for stored in ast.walk(target)
            if isinstance(stored, ast.Attribute)
        }
        if batch is not None:
            used = _names_used(_function(path, batch))
            assert plans & used and {"TemplateEncoder", "stamp"} <= used, f"{path}: {batch}"
        used = _names_used(_function(path, frame))
        assert plans & used and {"stamp", "finish"} & used, f"{path}: {frame}"
    built_by, identifiers, memos = [], set(), 0
    for path in _source_modules():
        tree = _parsed(path)
        built_by += [f"{path.name}:{qual}" for qual, node in _functions(tree)
                     if "FramePlan" in _names_used(node)]
        for node in ast.walk(tree):
            if isinstance(node, (ast.Attribute, ast.Name, ast.FunctionDef, ast.ClassDef)):
                identifiers.add(
                    getattr(node, "attr", None) or getattr(node, "id", None) or node.name
                )
            # A plan memo: a dict keyed by tuple (the switch's plans are keyed by role).
            memos += isinstance(node, ast.AnnAssign) and "[tuple, FramePlan]" in ast.unparse(node)
    assert sorted(built_by) == sorted(f"{path.name}:{name}" for path, name, *_ in TEMPLATE_SITES)
    assert not identifiers & set(RETIRED_TEMPLATES)
    assert {"FramePlan", "TemplateEncoder"} <= identifiers
    assert memos == 1


#: Where a packet may be built outside a plan's construction: the codec
#: itself, and the P4 deparser of the section 6 byte-equivalence exhibit.
PACKING_MODULES = (SRC / "rdma" / "packets.py", SRC / "switch" / "p4")
PACKET_CONSTRUCTORS = {
    "RoceV2Packet", "EthernetHeader", "Ipv4Header", "UdpHeader", "Bth", "Reth",
    "AtomicEth", "Aeth",
}


def _constructions_outside_plans(tree: ast.AST, path):
    """Packet / header dataclasses built anywhere but in the arguments of a
    ``FramePlan(...)`` call: the template a plan is built from."""
    allowed = {
        id(node)
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and _call_name(call) == "FramePlan"
        for node in ast.walk(call)
    }
    for call in ast.walk(tree):
        if (
            isinstance(call, ast.Call)
            and _call_name(call) in PACKET_CONSTRUCTORS
            and id(call) not in allowed
        ):
            yield f"{path}:{call.lineno}: {_call_name(call)}(...) outside a plan's construction"


def test_frame_senders_stamp_their_template():
    """Outside the codec and the P4 exhibit no module builds a packet or
    header dataclass: every frame ``src`` sends is stamped from a plan."""
    violations = []
    for path in _source_modules():
        if not any(path == root or root in path.parents for root in PACKING_MODULES):
            violations.extend(_constructions_outside_plans(_parsed(path), path))
    assert not violations, "\n".join(violations)


def test_frame_sender_lint_catches_a_seeded_violation():
    tree = ast.parse(
        "class Site:\n"
        "    def __init__(self):\n"
        "        self._plan = FramePlan(RoceV2Packet(bth=Bth()).pack(), 'bth.psn')\n"
        "    def _response_plan(self):\n"
        "        return FramePlan(RoceV2Packet(aeth=Aeth()).pack(), 'aeth.msn')\n"
        "    def craft_frame(self, psn):\n"
        "        return RoceV2Packet(bth=Bth(psn=psn)).pack()\n"
        "    def _craft_put_frames(self, word):\n"
        "        write = RoceV2Packet(bth=Bth(opcode=W), reth=Reth(va, rkey, 8), payload=word)\n"
        "        cas = RoceV2Packet(bth=Bth(opcode=C), atomic_eth=AtomicEth(va, rkey, word))\n"
        "        return FramePlan(write.pack(), 'bth.psn'), cas.pack()\n"
    )
    flagged = list(_constructions_outside_plans(tree, "seeded.py"))
    assert sorted(flagged) == sorted(
        f"seeded.py:{line}: {name}(...) outside a plan's construction"
        for line, name in [(7, "Bth"), (7, "RoceV2Packet"), (9, "Bth"), (9, "Reth"),
                           (9, "RoceV2Packet"), (10, "AtomicEth"), (10, "Bth"),
                           (10, "RoceV2Packet")]
    )


def test_layout_lint_catches_seeded_violations():
    """Each rule flags its own synthetic offender, and only that."""
    seeded = {
        "literal offset": "write_be32(frames, 50, psns)\n",
        "read_be32() at a literal": "read_be32(frames, RETH_OFF + 12)\n",
        "literal column bound": "frames[:, 70 : 70 + slot_bytes] = payloads\n",
        "spelled as literals": "_UNIFORM_COLUMNS = np.r_[6:12, 26:30]\n",
        "column set spelled": "_MASKED_COLUMNS = np.array([9, 16, 18])\n",
        "struct format": "_BTH = struct.Struct('>BBHBBBBI')\n",
    }
    for expected, source in seeded.items():
        flagged = list(_layout_violations(ast.parse(source), "rdma/seeded.py"))
        assert len(flagged) == 1 and expected in flagged[0], (source, flagged)
    clean = (
        "write_be32(frames, offset, psns)\n"
        "read_field(frames, 'bth.psn')\n"
        "frames[:, PAYLOAD_OFF:-ICRC_BYTES] = payloads\n"
        "wide[:, start - stop :] = frames[:, start:stop]\n"
        "_MASKED_COLUMNS = np.array(ICRC_MASKED_COLUMNS)\n"
        "addresses[:, 1]\n"
    )
    assert list(_layout_violations(ast.parse(clean), "rdma/seeded.py")) == []


# ---------------------------------------------------------------------------
# Watching must not steer; one stage timer
# ---------------------------------------------------------------------------

#: Modules whose stages go through ``registry.stage(...)`` and so read no
#: clock of their own.  (``query/service.py``, ``query/loadgen.py`` and
#: ``experiments/`` time a caller-visible duration, not a stage.)
STAGE_TIMED_MODULES = {
    "repro/collector/store.py", "repro/collector/counters.py",
    "repro/core/client.py", "repro/core/cas_store.py", "repro/rdma/nic.py",
    "repro/fabric/fabric.py", "repro/primitives/translator.py",
}
_PROFILER_CAPTURES = {"get_profiler", "set_profiler", "_profiler"}


def _identifiers(node):
    """Every name a node binds, reads or passes: not prose."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, (ast.arg, ast.keyword)):
        yield node.arg
    elif isinstance(node, ast.alias):
        yield node.name


def _watching_violations(tree: ast.AST, path):
    """Knobs and second clocks in one parsed module (``path`` from ``src/``)."""
    path = str(path)
    in_obs = path.startswith("repro/obs/")
    for node in ast.walk(tree):
        line = getattr(node, "lineno", 0)
        for name in _identifiers(node):
            if name == "granularity":
                yield f"{path}:{line}: a granularity knob"
            if name in _PROFILER_CAPTURES and not in_obs:
                yield f"{path}:{line}: {name}: profiler captured outside repro.obs"
            if name == "perf_counter" and path in STAGE_TIMED_MODULES:
                yield f"{path}:{line}: perf_counter beside the stage timer"
        if isinstance(node, ast.Constant) and node.value == "stage_seconds" and not in_obs:
            yield f"{path}:{line}: stage_seconds spelled outside repro.obs"


def test_no_granularity_knob_and_one_stage_timer():
    for module in STAGE_TIMED_MODULES:
        assert (SRC.parent / module).is_file(), module
    violations = []
    for path in [LAYOUT_MODULE, *_source_modules()]:
        tree = _parsed(path)
        relative = path.relative_to(SRC.parent).as_posix()
        violations.extend(_watching_violations(tree, relative))
    assert not violations, "\n".join(violations)


def test_watching_lint_catches_seeded_violations():
    """Each rule flags its own synthetic offender, where it applies."""
    seeded = {
        "granularity knob": "if tracer.enabled and tracer.granularity != 'batch':\n    pass\n",
        "a granularity": "def __init__(self, granularity='report'):\n    pass\n",
        "granularity k": "Tracer(granularity='batch')\n",
        "get_profiler": "self._p = obs.get_profiler()\n",
        "_profiler: profiler captured": "profiler = self._profiler\n",
        "perf_counter beside": "from time import perf_counter\n",
        "perf_counter": "started = perf_counter()\n",
        "stage_seconds spelled": "registry.histogram('stage_seconds', B, labels={'stage': 'x'})\n",
    }
    for expected, source in seeded.items():
        flagged = list(_watching_violations(ast.parse(source), "repro/rdma/nic.py"))
        assert len(flagged) == 1 and expected in flagged[0], (source, flagged)
    # Inside repro.obs the profiler and the series name are at home; a
    # module that times a caller-visible duration may read the clock.
    at_home = "self._profiler = p\nregistry.histogram('stage_seconds', B)\n"
    assert list(_watching_violations(ast.parse(at_home), "repro/obs/metrics.py")) == []
    exempt = "from time import perf_counter\nelapsed = perf_counter() - started\n"
    assert list(_watching_violations(ast.parse(exempt), "repro/query/service.py")) == []
    prose = '"""Call shape, not a granularity option, picks stage_seconds spans."""\n'
    assert list(_watching_violations(ast.parse(prose), "repro/rdma/nic.py")) == []


# ---------------------------------------------------------------------------
# Fold a key once, in one place
# ---------------------------------------------------------------------------

#: The fold (``stable_key_bytes`` + the word mix) is the expensive part of
#: every hash; a module that can import it can re-fold a key its caller
#: already folded.  Only these may: the hash family itself, the two
#: addressing entry points, the count-min owner, the query side's one
#: folding site, the switch (its mirror clone carries the key bytes) and
#: the simulator (it folds its integer keys once per run).
FOLD_NAMES = {"fold_key", "fold_keys", "stable_key_bytes"}
MAY_FOLD = {
    "repro/core/addressing.py", "repro/core/batch.py", "repro/core/simulator.py",
    "repro/primitives/translator.py", "repro/query/backend.py",
    "repro/switch/dart_switch.py",
}
#: Family members whose key -> location mapping has exactly one owner.
OWNED_MEMBERS = {
    "COLLECTOR_FUNCTION_INDEX": "repro/core/addressing.py",
    "COUNTER_FUNCTION_BASE": "repro/primitives/translator.py",
}


def _fold_violations(tree: ast.AST, path):
    """Second fold sites in one parsed module (``path`` from ``src/``)."""
    path = str(path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not (
            path.startswith("repro/hashing/") or path in MAY_FOLD
        ):
            for alias in node.names:
                if alias.name in FOLD_NAMES:
                    yield f"{path}:{node.lineno}: imports {alias.name}"
        if isinstance(node, ast.Call) and _call_name(node) == "hash_key_mod":
            named = {
                name
                for argument in node.args
                for part in ast.walk(argument)
                for name in _identifiers(part)
            }
            for member, owner in OWNED_MEMBERS.items():
                if member in named and path != owner:
                    yield (
                        f"{path}:{node.lineno}: hash_key_mod(..., {member}) "
                        f"re-derives its owner's mapping"
                    )


def test_one_fold_site_per_layer():
    for module in MAY_FOLD | set(OWNED_MEMBERS.values()):
        assert (SRC.parent / module).is_file(), module
    violations = []
    for path in [LAYOUT_MODULE, *_source_modules()]:
        tree = _parsed(path)
        relative = path.relative_to(SRC.parent).as_posix()
        violations.extend(_fold_violations(tree, relative))
    assert not violations, "\n".join(violations)


def test_fold_lint_catches_seeded_violations():
    seeded = {
        "imports fold_keys": "from repro.hashing.hash_family import Key, fold_keys\n",
        "imports stable_key_bytes": "from repro.hashing import stable_key_bytes\n",
        "COUNTER_FUNCTION_BASE": (
            "family.hash_key_mod(key, COUNTER_FUNCTION_BASE + row, cells)\n"
        ),
        "COLLECTOR_FUNCTION_INDEX": (
            "self._family.hash_key_mod(key, COLLECTOR_FUNCTION_INDEX, count)\n"
        ),
    }
    for expected, source in seeded.items():
        flagged = list(_fold_violations(ast.parse(source), "repro/query/fleet.py"))
        assert len(flagged) == 1 and expected in flagged[0], (source, flagged)
    at_home = "from repro.hashing.hash_family import fold_keys\n"
    assert list(_fold_violations(ast.parse(at_home), "repro/query/backend.py")) == []
    assert list(_fold_violations(ast.parse(at_home), "repro/hashing/__init__.py")) == []
    reference = "self._ecmp.hash_key_mod((flow_key, stage), 0, len(choices))\n"
    assert list(_fold_violations(ast.parse(reference), "repro/network/topology.py")) == []


# ---------------------------------------------------------------------------
# A lossy batch stays a batch
# ---------------------------------------------------------------------------

IMPAIRED_MODULE = SRC / "fabric" / "impaired.py"

#: Delivering (``send_batch``), copying rows out (``select``) and turning a
#: row into bytes (``tobytes`` / ``frame_bytes``) each cost a fixed price per
#: call; inside a loop over a batch's rows they are the cut into short runs
#: creeping back.
PER_RUN_CALLS = {"send_batch", "select", "tobytes", "frame_bytes"}
#: The loops of ``ImpairedFabric.send_batch`` that may: over the frames
#: carried in from earlier calls and over the rows still held at the end,
#: each at most one entry per endpoint.
PER_ENDPOINT_ITERABLES = {"carried", "waiting"}

_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _iterated(loop) -> set:
    """Every identifier in what ``loop`` iterates over."""
    if isinstance(loop, ast.For):
        sources = [loop.iter]
    elif isinstance(loop, ast.While):
        sources = [loop.test]
    else:
        sources = [generator.iter for generator in loop.generators]
    return {
        name for source in sources for part in ast.walk(source)
        for name in _identifiers(part)
    }


def _row_loop_violations(tree: ast.AST, path):
    """Per-run calls inside the row loops of ``ImpairedFabric.send_batch``.

    A call to another method of the class, or to a function nested in
    ``send_batch``, counts as the per-run calls its body makes.
    """
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and cls.name == "ImpairedFabric"):
            continue
        helpers = {
            node.name: {
                _call_name(call) for call in ast.walk(node) if isinstance(call, ast.Call)
            } & PER_RUN_CALLS
            for node in ast.walk(cls)
            if isinstance(node, ast.FunctionDef) and node.name != "send_batch"
        }
        for body in cls.body:
            if not (isinstance(body, ast.FunctionDef) and body.name == "send_batch"):
                continue
            for loop in ast.walk(body):
                if not isinstance(loop, _LOOPS) or (
                    _iterated(loop) & PER_ENDPOINT_ITERABLES
                ):
                    continue
                for call in ast.walk(loop):
                    if not isinstance(call, ast.Call):
                        continue
                    name = _call_name(call)
                    for made in sorted(
                        {name} & PER_RUN_CALLS or helpers.get(name, ())
                    ):
                        yield (
                            f"{path}:{call.lineno}: send_batch() reaches "
                            f"{made}(...) inside a loop over rows"
                        )


def test_impaired_send_batch_delivers_outside_its_row_loop():
    tree = _parsed(IMPAIRED_MODULE)
    assert any(
        isinstance(node, ast.FunctionDef) and node.name == "send_batch"
        for node in ast.walk(tree)
    )
    violations = list(_row_loop_violations(tree, IMPAIRED_MODULE))
    assert not violations, "\n".join(violations)


def test_row_loop_lint_catches_seeded_violations():
    template = (
        "class ImpairedFabric:\n"
        "    def _flush_run(self, batch, run):\n"
        "        self.inner.send_batch(batch.select(run))\n"
        "    def send_batch(self, batch):\n"
        "        for row in range(batch.count):\n"
        "            %s\n"
        "        for stop, endpoint_id, frame in carried:\n"
        "            self.inner.send_batch(batch.select(plan[:stop]))\n"
    )
    seeded = {
        "self._held[row] = batch.frames[row].tobytes()": {"tobytes"},
        "self.inner.send_batch(batch.select(rows))": {"select", "send_batch"},
        "self._flush_run(batch, run)": {"select", "send_batch"},
        "sent = [batch.select(run) for run in runs]": {"select"},
    }
    for line, expected in seeded.items():
        flagged = list(_row_loop_violations(ast.parse(template % line), "seeded.py"))
        assert {message.split()[3][:-5] for message in flagged} == expected, flagged
        assert all(message.startswith("seeded.py:6:") for message in flagged)
    clean = list(_row_loop_violations(ast.parse(template % "order.append(row)"), "s.py"))
    assert clean == []


# ---------------------------------------------------------------------------
# Per-row kernels run in C
# ---------------------------------------------------------------------------

REGION_MODULE = SRC / "mem" / "region.py"

#: Batch kernels whose rows go through one C-level pass: no Python loop or
#: comprehension anywhere in them (the iCRC maps ``zlib.crc32``).
ROW_KERNELS = [
    (SRC / "rdma" / "frames.py", "icrc_rows"),
    (REGION_MODULE, "write_offset_columnar"),
    (REGION_MODULE, "read_offset_columnar"),
]


def _row_kernel_violations(function: ast.AST, path):
    """Python loops in a row kernel."""
    for node in ast.walk(function):
        if isinstance(node, _LOOPS):
            yield f"{path}:{node.lineno}: {function.name}() loops over rows in Python"


def _index_matrix_violations(tree: ast.AST, path):
    """``offsets[:, None] + np.arange(width)``: a ``count x width`` index matrix."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
            continue
        sides = (node.left, node.right)
        lifted = any(
            isinstance(side, ast.Subscript)
            and isinstance(side.slice, ast.Tuple)
            and any(getattr(part, "value", 0) is None for part in side.slice.elts)
            for side in sides
        )
        if lifted and any(
            isinstance(side, ast.Call) and _call_name(side) == "arange" for side in sides
        ):
            yield f"{path}:{node.lineno}: an index matrix instead of the region's window"


def test_row_kernels_loop_in_c():
    violations = []
    for path, name in ROW_KERNELS:
        violations.extend(_row_kernel_violations(_function(path, name), path))
    violations.extend(_index_matrix_violations(_parsed(REGION_MODULE), REGION_MODULE))
    assert not violations, "\n".join(violations)


def test_row_kernel_lint_catches_seeded_violations():
    seeded = {
        "def icrc_rows(frames):\n    return [crc(row) for row in frames]\n": 1,
        "def read_offset_columnar(self, offsets, width):\n"
        "    for offset in offsets:\n        out.append(self.read_offset(offset, width))\n": 1,
        "def icrc_rows(frames):\n"
        "    return fromiter((crc32(data[s:s + w]) for s in range(0, n, w)))\n": 1,
        "def icrc_rows(frames):\n"
        "    return fromiter(map(zlib.crc32, records, repeat(_ICRC_SEED)))\n": 0,
    }
    for source, expected in seeded.items():
        function = ast.parse(source).body[0]
        flagged = list(_row_kernel_violations(function, "seeded.py"))
        assert len(flagged) == expected, (source, flagged)
    for source in (
        "buffer[offsets[:, None] + np.arange(width)] = payloads\n",
        "cells = buffer[np.arange(8) + unique[:, None]]\n",
    ):
        assert len(list(_index_matrix_violations(ast.parse(source), "seeded.py"))) == 1
    clean = "windows[offsets] = payloads\nrows = np.arange(count) + base\n"
    assert list(_index_matrix_violations(ast.parse(clean), "seeded.py")) == []


# ---------------------------------------------------------------------------
# One way onto the wire
# ---------------------------------------------------------------------------

#: The module whose ``report_into`` is the switch's one frame-emit path.
SWITCH_MODULE = SRC / "switch" / "dart_switch.py"


def _report_sends(tree: ast.AST, path):
    """``<...>fabric.send(...)`` of a ``report(...)`` result, directly or
    through the names (assigned or looped over) that carry it."""
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        carried = set()

        def carries(node) -> bool:
            return any(
                (isinstance(inner, ast.Call) and _call_name(inner) == "report")
                or (isinstance(inner, ast.Name) and inner.id in carried)
                for inner in ast.walk(node)
            )

        bindings = [
            (target, node.value) for node in ast.walk(function)
            if isinstance(node, ast.Assign) for target in node.targets
        ] + [
            (node.target, node.iter) for node in ast.walk(function)
            if isinstance(node, (ast.For, ast.comprehension))
        ]
        grown = True
        while grown:
            grown = False
            for target, value in bindings:
                names = {n.id for n in ast.walk(target) if isinstance(n, ast.Name)} - carried
                if names and carries(value):
                    carried |= names
                    grown = True
        for call in ast.walk(function):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "send"
                and ast.unparse(call.func.value).endswith("fabric")
                and any(carries(argument) for argument in call.args)
            ):
                yield f"{path}:{call.lineno}: fabric.send(...) of a report(...) frame"


def test_only_report_into_sends_report_frames():
    violations = []
    for path in _source_modules():
        if path != SWITCH_MODULE:
            violations.extend(_report_sends(_parsed(path), path.relative_to(SRC.parent)))
    assert not violations, "\n".join(violations)


def test_report_send_lint_catches_seeded_violations():
    seeded = {
        "def put(self, key, value):\n"
        "    for collector_id, frame in self._switch.report(key, value):\n"
        "        self.fabric.send(collector_id, frame)\n": 1,
        "def run(switch, fabric):\n    frames = switch.report(k, v)\n"
        "    for pair in frames:\n        fabric.send(*pair[:1], pair[1])\n": 1,
        "def put(self, key, value):\n    return self._switch.report_into(key, value)\n": 0,
        "def run(switch, nic, fabric):\n    for _c, frame in switch.report(k, v):\n"
        "        nic.receive_frame(frame)\n    fabric.send(0, craft())\n": 0,
    }
    for source, expected in seeded.items():
        flagged = list(_report_sends(ast.parse(source), "seeded.py"))
        assert len(flagged) == expected, (source, flagged)


# ---------------------------------------------------------------------------
# One owner of the lookup table
# ---------------------------------------------------------------------------


def _table_reaches(tree: ast.AST, path):
    """Every ``collector_table`` name, attribute or string in a module."""
    for node in ast.walk(tree):
        spelled = (getattr(node, field, None) for field in ("attr", "id", "value"))
        if "collector_table" in spelled:
            yield f"{path}:{node.lineno}: names collector_table"


def test_only_the_switch_names_its_lookup_table():
    violations = []
    for path in _source_modules():
        if path != SWITCH_MODULE:
            violations.extend(_table_reaches(_parsed(path), path.relative_to(SRC.parent)))
    assert not violations, "\n".join(violations)


def test_table_lint_catches_seeded_violations():
    seeded = {
        "def rollback(switch, role):\n    switch.collector_table.remove_entry((role,))\n": 1,
        "def peek(switch):\n    return getattr(switch, 'collector_table')\n": 1,
        "def rollback(switch, role, previous):\n    switch.update_collector(role, *previous)\n": 0,
    }
    for source, expected in seeded.items():
        flagged = list(_table_reaches(ast.parse(source), "seeded.py"))
        assert len(flagged) == expected, (source, flagged)


# ---------------------------------------------------------------------------
# Options: a default nobody overrides is a constant
# ---------------------------------------------------------------------------

#: Defaulted parameters only ``tests/`` set, each with why it is still a
#: parameter.  Exhibit harnesses (``experiments/``, ``*_rows``) are not
#: under the rule: their defaults are the recorded inputs.
ONLY_TESTS_SET = {
    # The way a test reaches a boundary, a fault or a second instance cheaply.
    ("main", "argv"): "tests drive the CLI in-process",
    ("EventJournal.__init__", "capacity"): "ring wrap-around in a handful of events",
    ("Tracer.__init__", "max_traces"): "live-ring eviction in a handful of traces",
    ("Tracer.__init__", "max_kept"): "tail-retention eviction likewise",
    ("StageProfiler.__init__", "max_events"): "event-ring trimming (the PR 17 bug)",
    ("MetricsScraper.__init__", "capacity"): "series retention bound",
    ("AutoBundler.__init__", "max_bundles"): "the automatic-dump cap",
    ("AppendStore.register_writer", "max_retries"): "AppendReserveError after two lost reservations",
    ("PacketLevelIntNetwork.__init__", "max_int_hops"): "the INT hop-limit truncation path",
    ("RemoteQueryClient.__init__", "max_retries"): "retry budget 0 vs 8 under 40% loss",
    ("RemoteQueryClient.__init__", "fabric"): "the lossy request leg (ImpairedFabric) of remote queries",
    ("SelfTelemetryExporter.__init__", "fabric"): "telemetry plane under the datapath's loss regime",
    ("SelfTelemetryExporter.__init__", "export_every"): "cadence merging of skipped windows",
    ("CasDartStore.__init__", "fabric"): "WRITE+CAS over a buffered fabric (put_many parity)",
    ("IntSimulation.__init__", "scraper"): "scrape cadence on the report clock",
    ("PacketLevelIntNetwork.__init__", "scraper"): "scrape cadence on the packet clock",
    ("conformance_rules", "for_ticks"): "fire on the first breached scrape",
    ("ProbeStation.__init__", "station_id"): "two stations on one cluster need distinct QPs (PR 15 bug)",
    ("AppendQueryClient.__init__", "operator_id"): "two followers interleaving on one demux",
    ("CounterQueryClient.__init__", "operator_id"): "two operators interleaving on one demux",
    ("SwitchSketch.update", "amount"): "weighted register updates, as CounterStore.add takes",
    ("Histogram.exemplar", "q"): "reads the bucket a given quantile falls in",
    ("NullHistogram.exemplar", "q"): "mirrors Histogram.exemplar",
    # Safety: an input check on a value that arrives from outside.
    ("MemoryRegion.dma_fetch_add_many", "rkey"): "rkey validation, as dma_fetch_add has",
    # Named by an exhibit or ablation, or under the P4 exhibit.
    ("simulate", "chunk_size"): "DESIGN.md chunked-simulation ablation",
    ("P4Program.process_phv", "metadata"): "switch/p4 byte-equivalence exhibit",
    ("FleetController.__init__", "epoch_manager"): "epoch-rotating failover (section 5.2.1)",
    ("DartReporter.__init__", "redundancy"): "dynamic-N (section 5.1): fewer copies, same addressing",
    ("DynamicRedundancyController.__init__", "hysteresis"): "dynamic-N switch damping",
    ("AutoBundler.__init__", "controller"): "membership section of the failover postmortem",
    # Set only by the test of that option.
    ("sparkline", "width"): "only its width test sets it",
    ("SocketKafkaCollector.__init__", "partitions"): "only its validation test sets it",
    ("RemoteQueryClient.__init__", "policy"): "only its override test sets it",
    ("DartConfig.for_memory_budget", "num_collectors"): "only its split-budget test sets it",
}


def _options_nobody_sets(sources, callers):
    return {
        (option.qualname, option.parameter): option
        for option in audit.unset_options(sources, callers)
        if not option.exhibit
    }


def test_every_option_is_set_by_some_caller_outside_tests():
    sources = {
        path.relative_to(SRC.parent).as_posix(): _parsed(path)
        for path in [LAYOUT_MODULE, *_source_modules()]
    }
    callers = list(sources.values())
    for tree in audit.TRAFFIC_TREES[1:]:
        callers.extend(audit.parse_tree(audit.ROOT / tree).values())
    unset = _options_nobody_sets(sources, callers)
    constants = sorted(str(unset[key]) for key in unset.keys() - ONLY_TESTS_SET.keys())
    assert not constants, "no caller outside tests/ sets:\n" + "\n".join(constants)
    stale = sorted(ONLY_TESTS_SET.keys() - unset.keys())
    assert not stale, f"allow-listed but set by traffic, or gone: {stale}"
    assert len(ONLY_TESTS_SET) <= 34


def test_options_lint_catches_a_seeded_violation():
    source = (
        "def craft(frame, validate=True, *, width=4):\n    pass\n"
        "class Nic:\n"
        "    def __init__(self, region, mtu=1500):\n        pass\n"
        "    def poll(self, budget=8):\n        pass\n"
        "    def _drain(self, limit=1):\n        pass\n"
        "class Sub(Nic):\n    pass\n"
        "def capacity_rows(cores=16):\n    pass\n"
    )
    sources = {"repro/rdma/seeded.py": ast.parse(source)}
    traffic = ast.parse("craft(f, width=2)\nSub(r, 9000)\nnic.poll(**options)\n")
    assert set(_options_nobody_sets(sources, [traffic])) == {("craft", "validate")}
    assert set(_options_nobody_sets(sources, [ast.parse("craft(f, False)")])) == {
        ("craft", "width"), ("Nic.__init__", "mtu"), ("Nic.poll", "budget"),
    }


#: An import statement: ``from MODULE import NAMES`` (NAMES bare or in
#: parentheses) or ``import MODULES``.
_IMPORT = re.compile(
    r"^[ \t]*(?:from[ \t]+([.\w]+)[ \t]+import[ \t]+(?:\(([^)]*)\)|([^\n]*))"
    r"|import[ \t]+([^\n]*))",
    re.M,
)


def _imports_a_test_module(source: str) -> list:
    """The lines of ``source`` that import a ``test_*`` module or from one
    (read off the text: parsing every test module would double the lint)."""
    lines = []
    for match in _IMPORT.finditer(source):
        module, bracketed, bare, plain = match.groups()
        if module is None:
            modules = plain
        elif module.strip("."):
            modules = module
        else:
            modules = bracketed if bracketed is not None else bare
        if any(
            name.rsplit(".", 1)[-1].startswith("test_")
            for name in modules.replace(",", " ").split()
        ):
            lines.append(source.count("\n", 0, match.start()) + 1)
    return lines


def test_test_modules_share_helpers_only_through_rigs():
    tests = pathlib.Path(__file__).resolve().parent
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(tests.glob("test_*.py"))
        for line in _imports_a_test_module(path.read_text())
    ]
    assert not offenders, "import shared helpers from tests/rigs.py:\n" + "\n".join(offenders)
    seeded = (
        "from .test_fabric import RecordingPort\nfrom . import (\n    rigs, test_fold_once)\n"
        "import tests.test_cli\nfrom .rigs import Tap\nimport test_x as helpers\n"
    )
    assert _imports_a_test_module(seeded) == [1, 2, 4, 6]
