"""Compare sets of benchmark result files, metric by metric, against the bounds.

    python3 perf/compare.py --set base a1.json a2.json a3.json \\
                            --set new  b1.json b2.json b3.json

Each file is an ``--out`` of ``perf/run.py``.  For every workload and
end-to-end metric the table shows each set's median and quartiles and,
for every set after the first, a verdict against the first using the
bounds in ``BENCHMARK.json``:

``regressed``   the median is worse than the base's by more than the bound
``improved``    the median is better by more than the base's own spread
``unchanged``   neither
``unresolved``  the run-to-run spread (IQR / median) of either set exceeds
                the bound, so the bound cannot be checked -- unless every
                run of one set beats every run of the other

Exits non-zero on any regression.  With ``--agree`` (two sets of runs of
the *same* code) it also exits non-zero when two medians differ by more
than the bound in either direction, and on any per-layer count that
differs between sets run on the same seeds.  Quartiles are the inclusive
kind, which stay inside the data when a set has only three runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

Values = Dict[Tuple[str, str], List[float]]


def load(paths: List[str]):
    """(end-to-end values, per-layer counts keyed by seed) of one set."""
    timings: Values = {}
    counts: Dict[Tuple[str, str, int], float] = {}
    for path in paths:
        for result in json.loads(Path(path).read_text())["results"]:
            workload = result["workload"]
            for name, metric in result["metrics"].items():
                if not result["trace"]:
                    timings.setdefault((workload, name), []).append(metric["value"])
                elif metric["unit"] == "count":
                    counts[(workload, name, result["seed"])] = metric["value"]
    return timings, counts


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def gain(base: List[float], new: List[float], better: str) -> float:
    """Signed share of the base median by which ``new``'s median is better."""
    sign = 1.0 if better == "higher" else -1.0
    base_median = statistics.median(base)
    return sign * (statistics.median(new) - base_median) / (abs(base_median) or 1.0)


def verdict(base: List[float], new: List[float], better: str, bound: float) -> str:
    """How ``new`` stands against ``base`` for one metric (see module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    base_q1, base_median, base_q3 = quartiles(base)
    new_q1, _new_median, new_q3 = quartiles(new)
    scale = abs(base_median) or 1.0
    gained = gain(base, new, better)
    base_spread = (base_q3 - base_q1) / scale
    spread = max(base_spread, (new_q3 - new_q1) / scale)
    if spread > bound:
        if min(sign * v for v in new) > max(sign * v for v in base):
            return "improved"
        if max(sign * v for v in new) < min(sign * v for v in base):
            return "regressed"
        return "unresolved"
    if gained < -bound:
        return "regressed"
    if gained > base_spread and gained > 0:
        return "improved"
    return "unchanged"


def compare(sets: List[Tuple[str, List[str]]], agree: bool = False) -> int:
    """Print the comparison table; returns the process exit code."""
    loaded = [(label, *load(paths)) for label, paths in sets]
    base_label, base_timings, base_counts = loaded[0]
    failures = 0
    workloads = [entry["name"] for entry in BENCHMARK["workloads"]]
    for workload in workloads:
        print(f"== {workload}")
        for entry in BENCHMARK["end_to_end"]:
            name = entry["name"]
            if (workload, name) not in base_timings:
                continue
            cells = []
            for label, timings, _counts in loaded:
                values = timings.get((workload, name), [])
                if not values:
                    cells.append(f"{label}: -")
                    continue
                q1, median, q3 = quartiles(values)
                cell = f"{label}: {median:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"
                if label != base_label:
                    base = base_timings[(workload, name)]
                    outcome = verdict(base, values, entry["better"], entry["bound"])
                    cell += f" {outcome}"
                    apart = abs(gain(base, values, entry["better"])) > entry["bound"]
                    if outcome == "regressed" or (agree and apart):
                        failures += 1
                cells.append(cell)
            print(f"  {name:<22} {entry['unit']:<6} bound={entry['bound']:<6} "
                  + " | ".join(cells))
    for label, _timings, counts in loaded[1:]:
        for key in sorted(set(base_counts) & set(counts)):
            if base_counts[key] != counts[key]:
                workload, name, seed = key
                print(f"  count differs: {workload} {name} seed={seed} "
                      f"{base_label}={base_counts[key]:g} {label}={counts[key]:g}")
                failures += agree
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--set", dest="sets", action="append", nargs="+", required=True,
        metavar=("LABEL", "FILE"), help="a label followed by its result files",
    )
    parser.add_argument("--agree", action="store_true",
                        help="same code on both sides: medians further apart "
                        "than the bound, or differing counts, fail")
    args = parser.parse_args(argv)
    if len(args.sets) < 2 or any(len(group) < 2 for group in args.sets):
        parser.error("need at least two --set LABEL FILE [FILE ...]")
    return compare([(group[0], group[1:]) for group in args.sets], args.agree)


if __name__ == "__main__":
    sys.exit(main())
