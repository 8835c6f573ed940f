"""Meta-tests: documentation coverage of the public API.

Deliverable (e) requires doc comments on every public item; these tests
enforce it mechanically so regressions fail CI rather than review.
"""

import importlib
import inspect
import pathlib
import pkgutil
import re

import repro

PACKAGES = [
    "repro",
    "repro.baselines",
    "repro.collector",
    "repro.control",
    "repro.core",
    "repro.experiments",
    "repro.fabric",
    "repro.hashing",
    "repro.mem",
    "repro.network",
    "repro.obs",
    "repro.primitives",
    "repro.query",
    "repro.rdma",
    "repro.switch",
    "repro.switch.p4",
    "repro.telemetry",
]


def iter_modules():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        for info in pkgutil.iter_modules(package.__path__):
            if info.ispkg:
                continue
            yield importlib.import_module(f"{package_name}.{info.name}")


def public_members(module):
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.getmodule(member) is not module:
            continue  # re-exports are documented at their home
        if inspect.isclass(member) or inspect.isfunction(member):
            yield name, member


class TestDocstrings:
    def test_every_module_documented(self):
        undocumented = [
            module.__name__
            for module in iter_modules()
            if not (module.__doc__ or "").strip()
        ]
        assert undocumented == []

    def test_every_public_class_and_function_documented(self):
        undocumented = []
        for module in iter_modules():
            for name, member in public_members(module):
                if not (member.__doc__ or "").strip():
                    undocumented.append(f"{module.__name__}.{name}")
        assert undocumented == []

    def test_every_public_method_documented(self):
        undocumented = []
        for module in iter_modules():
            for class_name, klass in public_members(module):
                if not inspect.isclass(klass):
                    continue
                for name, method in vars(klass).items():
                    if name.startswith("_"):
                        continue
                    if not callable(method) and not isinstance(
                        method, (property, staticmethod, classmethod)
                    ):
                        continue
                    target = method
                    if isinstance(method, property):
                        target = method.fget
                    elif isinstance(method, (staticmethod, classmethod)):
                        target = method.__func__
                    if not callable(target):
                        continue
                    if not (getattr(target, "__doc__", None) or "").strip():
                        undocumented.append(
                            f"{module.__name__}.{class_name}.{name}"
                        )
        assert undocumented == []

    def test_version_exported(self):
        assert repro.__version__


def test_design_wire_layout_table_matches_the_module():
    """DESIGN.md's "Wire layout" table is the field table, row for row."""
    from repro.rdma import layout

    design = pathlib.Path(__file__).resolve().parent.parent / "DESIGN.md"
    section = design.read_text().split("## Wire layout", 1)[1].split("\n## ", 1)[0]
    documented = [
        (name, int(offset), int(size), re.findall(r"`(\w+):(\d+)`", fields))
        for name, offset, size, fields in re.findall(
            r"^\| `(\w+)` \| (-?\d+) \| (\d+) \| (.+) \|$", section, re.MULTILINE
        )
    ]
    assert documented == [
        (
            header.name,
            header.offset,
            header.size,
            [(field.name, str(field.width)) for field in header.fields],
        )
        for header in layout.HEADERS
    ]


def test_design_experiment_index_names_resolve():
    """Every `repro.…` name in DESIGN.md's per-experiment index imports."""
    design = pathlib.Path(__file__).resolve().parent.parent / "DESIGN.md"
    section = design.read_text().split("## Per-experiment index", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"`(repro(?:\.\w+)+)(?:\.\*)?`", section)
    unresolved = []
    for name in names:
        try:
            pkgutil.resolve_name(name)
        except (ImportError, AttributeError):
            unresolved.append(name)
    assert names and unresolved == []
