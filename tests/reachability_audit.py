"""Which ``src/repro`` functions does no entry point ever call?

``coverage`` is not installed here, so this is a ``sys.setprofile`` call
collector: a child interpreter records ``(co_filename, co_firstlineno)``
of every ``src/repro`` function on its ``call`` event and dumps the set at
exit.  The parent runs one child per entry -- every tier-1 test module,
``python -m repro.experiments``, every ``benchmarks/bench_*.py``,
``perf/run.py`` on each workload (plain and traced) and every
``examples/*.py`` -- unions the sets, and prints, per file, the functions
``ast`` finds that nothing reached.  A function only its own unit test
reaches shows up under ``--without-tests`` (the union minus tier-1).

Run it with ``make audit`` (about half an hour); it is not a test
and pytest does not collect it.

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
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, List, Set, Tuple

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
            cwd=ROOT, env=environment,
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


def defined() -> Dict[Site, str]:
    """Every function ``src/repro`` defines: ``{site: qualified name}``."""
    sites: Dict[Site, str] = {}

    def walk(node: ast.AST, filename: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A code object starts at its first decorator.
                line = min(
                    [child.lineno, *(d.lineno for d in child.decorator_list)]
                )
                sites[(filename, line)] = prefix + child.name
                walk(child, filename, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, filename, f"{prefix}{child.name}.")
            else:
                walk(child, filename, prefix)

    for path in sorted((SRC / "repro").rglob("*.py")):
        walk(ast.parse(path.read_text()), str(path), "")
    return sites


def report(title: str, sites: Dict[Site, str], reached: Set[Site]) -> None:
    missing: Dict[str, List[Tuple[int, str]]] = {}
    for (filename, line), name in sites.items():
        if (filename, line) not in reached:
            missing.setdefault(filename, []).append((line, name))
    total = sum(len(names) for names in missing.values())
    print(f"\n== {title}: {total} of {len(sites)} functions unreached ==")
    for filename in sorted(missing):
        relative = Path(filename).relative_to(ROOT)
        print(f"{relative}  ({len(missing[filename])})")
        for line, name in sorted(missing[filename]):
            print(f"    {line:5d}  {name}")


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
    args = parser.parse_args()
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
