"""Which ``src/repro`` functions does no entry point ever call?

``coverage`` is not installed here, so this is a ``sys.setprofile`` call
collector: a child interpreter records ``(co_filename, co_firstlineno)``
of every ``src/repro`` function on its ``call`` event and dumps the set at
exit.  The parent runs one child per entry -- every tier-1 test module,
``python -m repro.experiments``, every ``benchmarks/bench_*.py``,
``perf/run.py`` on each workload (plain and traced), every
``examples/*.py`` and every ``python -m repro ...`` line README.md shows
(the ``cli`` set: parsed from the docs, so the two cannot drift) -- unions
the sets, and prints, per file, the functions ``ast`` finds that nothing
reached.  A function only its own unit test reaches shows up under
``--without-tests`` (the union minus tier-1).

``--options`` is a second, static report (1.5 s): every defaulted parameter
of a public callable in ``src/repro``, and whether any call site sets it --
call sites in ``src/ benchmarks/ examples/ perf/`` against those in
``tests/``, matched by callable name, ``*args`` / ``**kwargs`` counted as
setting everything.  ``tests/test_hotpath_lint.py`` runs the same analysis
as a rule.

Run the audit with ``make audit`` (about half an hour); it is not a test
and pytest does not collect it.

What both reports read, before and after PR 23 (the Options and
Reachability passes), exhibit harnesses (``experiments/``, ``*_rows``)
left out of the second figure of each pair:

===========================================  ============  ============
                                             before        after
===========================================  ============  ============
defaulted parameters of public callables     507 / 380     416 / 289
... set by no caller outside ``tests/``      235 / 127     152 / 44
... set by no caller at all                  130 / 66      64 / 0
functions no entry set but tier-1 reaches    357 of 1221   348 of 1209
lines of them outside ``switch/p4``          1 924         1 774
===========================================  ============  ============

(The "before" column counts the ``cli`` set with the ``simulate | plan |
theory | trace`` lines README.md gained in PR 23; without them it read 362
functions and 2 003 lines.  "Reaches" includes what nothing reaches.)

Gotchas, encoded below: ``pytest-benchmark`` pauses any installed
profiler inside ``benchmark(...)`` / ``pedantic(...)``
(``PauseInstrumentation``), so benchmarks are audited with
``--benchmark-disable`` -- otherwise every function they time reads as
import-only.  And the collector slows everything severalfold, so the
absolute-rate gates (``bench_fabric_columnar``, ``bench_primitives``) fail
under it: a child's non-zero exit is printed, not fatal, and no module is
run with ``-x``.  The gates that do pass rewrite their ``BENCH_*.json``
with what they measured under the collector; the files are restored.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import json
import os
import runpy
import shlex
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = str(SRC / "repro") + os.sep

Site = Tuple[str, int]


# ----------------------------------------------------------------------
# Child: run one entry under the collector
# ----------------------------------------------------------------------


def collect_into(out: Path) -> None:
    """Install the collector; the reached set is written to ``out`` at exit."""
    reached: Set[Site] = set()
    seen_codes = set()

    def on_event(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        if code in seen_codes:
            return
        seen_codes.add(code)
        if code.co_filename.startswith(PACKAGE):
            reached.add((code.co_filename, code.co_firstlineno))

    def dump() -> None:
        sys.setprofile(None)
        out.write_text(json.dumps(sorted(reached)))

    atexit.register(dump)
    threading.setprofile(on_event)
    sys.setprofile(on_event)


def run_child(out: str, kind: str, target: str, argv: List[str]) -> None:
    collect_into(Path(out))
    sys.argv = [target, *argv]
    if kind == "module":
        runpy.run_module(target, run_name="__main__", alter_sys=True)
    else:
        runpy.run_path(target, run_name="__main__")


# ----------------------------------------------------------------------
# Parent: the entry sets, the union, the report
# ----------------------------------------------------------------------


def readme_commands() -> List[List[str]]:
    """The argv of every ``python -m repro <command> ...`` line README.md shows.

    Only lines that *start* with the command count (the ones inside code
    fences); a trailing backslash continues the line and shell quoting /
    ``# comments`` are handled by :mod:`shlex`.
    """
    commands: List[List[str]] = []
    lines = iter((ROOT / "README.md").read_text().splitlines())
    for line in lines:
        if not line.startswith("python -m repro "):
            continue
        while line.endswith("\\"):
            line = line[:-1] + next(lines)
        commands.append(shlex.split(line, comments=True)[3:])
    return commands


def entries() -> Dict[str, List[Tuple[str, str, List[str]]]]:
    """``{entry set: [(kind, target, argv)]}``, one child each."""
    pytest_quiet = ["-q", "-p", "no:cacheprovider"]
    return {
        "tier-1": [
            ("module", "pytest", [str(path), *pytest_quiet])
            for path in sorted((ROOT / "tests").glob("test_*.py"))
        ],
        "experiments": [("module", "repro.experiments", [])],
        "benchmarks": [
            # --benchmark-disable: see the module docstring.
            ("module", "pytest", [str(path), "--benchmark-disable", *pytest_quiet])
            for path in sorted((ROOT / "benchmarks").glob("bench_*.py"))
        ],
        "perf": [
            ("path", str(ROOT / "perf" / "run.py"),
             ["--workload", workload, "--smoke", "--trace", trace])
            for workload in (
                "ingest_columnar", "ingest_perframe", "query_uncached",
                "serve_mixed_lossy",
            )
            for trace in ("0", "1")
        ],
        "examples": [
            ("path", str(path), [])
            for path in sorted((ROOT / "examples").glob("*.py"))
        ],
        # Parsed from the docs, so the two cannot drift.
        "cli": [("module", "repro", argv) for argv in readme_commands()],
    }


def reached_by(kind: str, target: str, argv: List[str]) -> Set[Site]:
    """Run one entry in a child interpreter; the sites it called."""
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "reached.json"
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), str(ROOT), environment.get("PYTHONPATH", "")]
        )
        completed = subprocess.run(
            [sys.executable, __file__, "--child", str(out), kind, target, *argv],
            # The CLI writes where it stands (pipeline.json, bundles/).
            cwd=scratch if target == "repro" else ROOT, env=environment,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if not out.exists():
            raise SystemExit(
                f"{target} {' '.join(argv)} left no reached set "
                f"(exit {completed.returncode}):\n{completed.stderr[-2000:]}"
            )
        if completed.returncode:
            print(f"  (exit {completed.returncode}: {target} {' '.join(argv)})")
        return {(filename, line) for filename, line in json.loads(out.read_text())}


def defined() -> Dict[Site, Tuple[str, int]]:
    """Every function ``src/repro`` defines: ``{site: (qualified name, lines)}``."""
    sites: Dict[Site, Tuple[str, int]] = {}

    def walk(node: ast.AST, filename: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A code object starts at its first decorator.
                line = min(
                    [child.lineno, *(d.lineno for d in child.decorator_list)]
                )
                sites[(filename, line)] = (prefix + child.name, child.end_lineno - line + 1)
                walk(child, filename, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, filename, f"{prefix}{child.name}.")
            else:
                walk(child, filename, prefix)

    for path in sorted((SRC / "repro").rglob("*.py")):
        walk(ast.parse(path.read_text()), str(path), "")
    return sites


def report(title: str, sites: Dict[Site, Tuple[str, int]], reached: Set[Site]) -> None:
    missing: Dict[str, List[Tuple[int, str, int]]] = {}
    for (filename, line), (name, lines) in sites.items():
        if (filename, line) not in reached:
            missing.setdefault(filename, []).append((line, name, lines))
    total = sum(len(names) for names in missing.values())
    lines_outside_p4 = sum(
        lines
        for filename, functions in missing.items()
        if f"{os.sep}p4{os.sep}" not in filename
        for _line, _name, lines in functions
    )
    print(
        f"\n== {title}: {total} of {len(sites)} functions unreached, "
        f"{lines_outside_p4} lines of them outside switch/p4 =="
    )
    for filename in sorted(missing):
        relative = Path(filename).relative_to(ROOT)
        print(f"{relative}  ({len(missing[filename])})")
        for line, name, lines in sorted(missing[filename]):
            print(f"    {line:5d}  {name}  [{lines}]")


# ----------------------------------------------------------------------
# Options: which defaulted parameters does the traffic ever set?
# ----------------------------------------------------------------------

#: Where callers live.  Anything outside ``tests/`` is traffic.
TRAFFIC_TREES = ("src", "benchmarks", "examples", "perf")


class Option(NamedTuple):
    """One defaulted parameter of a public callable in ``src/repro``."""

    path: str  # relative to src/
    line: int
    callable: str  # what a call site spells: ``ClassName`` for __init__
    qualname: str
    parameter: str
    position: Optional[int]  # None: keyword-only

    @property
    def exhibit(self) -> bool:
        """Exhibit harnesses: their defaults are the recorded inputs."""
        return self.path.startswith("repro/experiments/") or self.callable.endswith("_rows")

    def __str__(self) -> str:
        return f"{self.path}:{self.line}  {self.qualname}({self.parameter}=)"


def call_name(node: ast.Call) -> str:
    """The terminal identifier of a call target (``a.b.C(...)`` -> ``C``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def _base_names(node: ast.ClassDef) -> List[str]:
    return [
        base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
        for base in node.bases
    ]


def options_of(tree: ast.AST, path: str) -> List[Option]:
    """Defaulted parameters of the public functions and methods of one module."""
    found: List[Option] = []

    def visit(body, prefix: str, in_class: Optional[str]) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                visit(node.body, f"{prefix}{node.name}.", node.name)
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_") and not (in_class and node.name == "__init__"):
                continue
            static = any(getattr(d, "id", "") == "staticmethod" for d in node.decorator_list)
            positional = [*node.args.posonlyargs, *node.args.args]
            skip = 1 if in_class and not static else 0
            name = in_class if node.name == "__init__" else node.name
            first = len(positional) - len(node.args.defaults)
            found.extend(
                Option(path, node.lineno, name, prefix + node.name, arg.arg, index - skip)
                for index, arg in enumerate(positional)
                if index >= first
            )
            found.extend(
                Option(path, node.lineno, name, prefix + node.name, arg.arg, None)
                for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                if default is not None
            )

    visit(tree.body, "", None)
    return found


def _constructs(sources: Dict[str, ast.AST]) -> Dict[str, Set[str]]:
    """``{class: the classes whose __init__ a call of it runs}``.

    A subclass without its own ``__init__`` runs its base's, so
    ``RemoteQueryClient(..., max_retries=8)`` sets ``DartQueryClient``'s.
    """
    classes = {
        node.name: node
        for tree in sources.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }

    def owners(name: str, seen=()) -> Set[str]:
        node = classes.get(name)
        if node is None or name in seen:
            return set()
        if any(isinstance(n, ast.FunctionDef) and n.name == "__init__" for n in node.body):
            return {name}
        return set().union(*(owners(base, (*seen, name)) for base in _base_names(node)))

    return {name: owners(name) for name in classes}


def calls_in(tree: ast.AST, constructs: Dict[str, Set[str]]):
    """``(callable name, positional count or None for *args, keywords)`` per call.

    ``super().__init__(...)`` and ``Base.__init__(self, ...)`` inside a
    class count as calls of its bases; ``**kwargs`` comes back as the
    keyword ``None`` (it may set anything).
    """

    def visit(node: ast.AST, bases: List[str]):
        if isinstance(node, ast.ClassDef):
            bases = _base_names(node)
        if isinstance(node, ast.Call):
            name = call_name(node)
            count: Optional[int] = len(node.args)
            if any(isinstance(arg, ast.Starred) for arg in node.args):
                count = None
            keywords = {keyword.arg for keyword in node.keywords}
            if name == "__init__":
                if count is not None and not isinstance(node.func.value, ast.Call):
                    count -= 1  # Base.__init__(self, ...) spells self
                targets = bases
            else:
                targets = [name]
            for target in targets:
                for owner in constructs.get(target, {target}):
                    yield owner, count, keywords
        for child in ast.iter_child_nodes(node):
            yield from visit(child, bases)

    yield from visit(tree, [])


def unset_options(sources: Dict[str, ast.AST], callers: Iterable[ast.AST]) -> List[Option]:
    """The options of ``sources`` (``{path from src/: tree}``) no call in ``callers`` sets.

    Call sites are matched to callables by name alone, so a method shares
    its call sites with every method of that name; ``*args`` and
    ``**kwargs`` count as setting everything.
    """
    constructs = _constructs(sources)
    keywords: Dict[str, Set[Optional[str]]] = {}
    longest: Dict[str, int] = {}
    for tree in callers:
        for name, count, named in calls_in(tree, constructs):
            keywords.setdefault(name, set()).update(named)
            if count is None:
                keywords[name].add(None)
            else:
                longest[name] = max(longest.get(name, 0), count)
    return [
        option
        for path, tree in sources.items()
        for option in options_of(tree, path)
        if not keywords.get(option.callable, set()) & {option.parameter, None}
        and not (option.position is not None and longest.get(option.callable, 0) > option.position)
    ]


def parse_tree(root: Path) -> Dict[str, ast.AST]:
    """``{path relative to root: parsed module}`` for every ``*.py`` below it."""
    return {
        str(path.relative_to(root)): ast.parse(path.read_text())
        for path in sorted(root.rglob("*.py"))
    }


def report_options() -> None:
    sources = parse_tree(SRC)
    traffic = [*sources.values()]
    for name in TRAFFIC_TREES[1:]:
        traffic.extend(parse_tree(ROOT / name).values())
    options = [o for path, tree in sources.items() for o in options_of(tree, path)]
    no_traffic = unset_options(sources, traffic)
    nothing = set(unset_options(sources, [*traffic, *parse_tree(ROOT / "tests").values()]))

    def both(found) -> str:
        return f"{len(found)} ({sum(not o.exhibit for o in found)} outside the exhibit harnesses)"

    print(f"defaulted parameters of public callables: {both(options)}")
    print(f"set by no caller outside tests/:          {both(no_traffic)}")
    print(f"set by no caller at all:                  {both(nothing)}")
    print("\n== non-exhibit options no caller outside tests/ sets (* = nor any test) ==")
    for option in no_traffic:
        if not option.exhibit:
            print(f"  {'*' if option in nothing else ' '} {option}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--only", action="append", choices=sorted(entries()),
        help="audit just these entry sets (repeatable; default: all)",
    )
    parser.add_argument(
        "--without-tests", action="store_true",
        help="also list what only tier-1 reaches",
    )
    parser.add_argument(
        "--options", action="store_true",
        help="static report instead: defaulted parameters no call site sets",
    )
    args = parser.parse_args()
    if args.options:
        report_options()
        return 0
    per_set: Dict[str, Set[Site]] = {}
    # A passing gate benchmark rewrites its BENCH_*.json with what it just
    # measured -- under the collector, nonsense.  Put the files back.
    recorded = {
        path: path.read_bytes() for path in (ROOT / "benchmarks").glob("BENCH_*.json")
    }
    try:
        for name, children in entries().items():
            if args.only and name not in args.only:
                continue
            reached: Set[Site] = set()
            for kind, target, argv in children:
                print(f"[{name}] {Path(target).name} {' '.join(argv[:1])}", flush=True)
                reached |= reached_by(kind, target, argv)
            per_set[name] = reached
    finally:
        for path, data in recorded.items():
            path.write_bytes(data)
    sites = defined()
    report("every entry set", sites, set().union(*per_set.values()))
    if args.without_tests and "tier-1" in per_set:
        others = [found for name, found in per_set.items() if name != "tier-1"]
        report("every entry set but tier-1", sites, set().union(*others))
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        run_child(*sys.argv[2:5], sys.argv[5:])
    else:
        raise SystemExit(main())
