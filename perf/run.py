"""Run the benchmark: one workload (the driver's contract) or all four in turn.

One workload, as the driver of ``BENCHMARK.json`` invokes it::

    python3 perf/run.py --workload W --seed S --seconds T --trace 0|1

prints every metric by name with its unit and sample count, checks the
outputs against the oracle, and ends with one JSON line ``{"correct",
"attempted", "failed", "metrics"}``.  ``--trace 0`` is the end-to-end
pass (span wrappers not installed, ``repro.obs`` at library defaults);
``--trace 1`` is the traced pass at a quarter of the work, which reports
the per-layer metrics.  Without ``--workload`` the four workloads run one
after another, each pass in a fresh child process, never two at once.

Everything is closed-loop with one client, in one thread, in-process: no
socket is opened and no real link is crossed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
# ``python3 perf/run.py`` puts perf/ first on the path; the package root
# and the library under test are what is needed instead.
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))
if not (ROOT / "src" / "repro").is_dir():
    # Never fall back to a copy of the library installed elsewhere.
    sys.exit("perf/run.py: no src/repro in this checkout; nothing to measure")

from perf.layers import metrics_cost, per_layer, replay_metrics  # noqa: E402
from perf.trace import SpanTracer  # noqa: E402
from perf.workloads import (  # noqa: E402
    SEGMENTS, WORKLOADS, Driver, smoke_spec,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LEDGER = Path(__file__).resolve().parent / "LEDGER.jsonl"

#: Extra set-ups timed before and after the measured loop; ``setup_s`` is the
#: fastest of these and the loop's own.
SPARE_SETUPS = (1, 1)

#: Fixed rounds of a ``--smoke`` pass.
SMOKE_ROUNDS = 2


def spare_setup(spec, seed: int) -> float:
    """Seconds of one more set-up of the same rig, which is then thrown away."""
    driver = Driver(spec, seed)
    seconds = driver.setup()
    driver.teardown()
    del driver
    gc.collect()
    return seconds


def end_to_end_pass(spec, seed: int, seconds: float, rounds: Optional[int]):
    """Set up, run the measured loop untraced, verify, set up again.

    The set-ups stand either side of the loop so that one burst of host
    noise cannot cover them all; like every timing here ``setup_s`` is the
    quiet reading (:func:`perf.workloads.quiet`), here simply the minimum.
    """
    before, after = (0, 0) if rounds is not None else SPARE_SETUPS
    setups = [spare_setup(spec, seed) for _ in range(before)]
    driver = Driver(spec, seed)
    setups.append(driver.setup())
    try:
        driver.run(seconds, rounds)
        driver.verify()
        metrics = driver.end_to_end()
        detail = {
            "outcomes": driver.oracle.outcomes,
            "environment": driver.environment(),
        }
    finally:
        driver.teardown()
    setups += [spare_setup(spec, seed) for _ in range(after)]
    metrics["setup_s"] = (min(setups), "s", len(setups))
    return [driver], metrics, detail


def traced_pass(
    spec, seed: int, seconds: float, rounds: Optional[int],
    trace_out: Optional[str],
):
    """The same rounds twice on identical inputs: plain, then with span wrappers."""
    if rounds is None:
        rounds = max(SEGMENTS, round(seconds / spec.nominal_round_s / 4))
    plain = Driver(spec, seed)
    plain.setup()
    try:
        plain.run(0, rounds)
        plain.verify()
    finally:
        plain.teardown()
    tracer = SpanTracer()
    traced = Driver(spec, seed)
    traced.setup()
    try:
        traced.tracer = tracer
        with tracer:
            traced.run(0, rounds)
            traced.verify()
        replays = replay_metrics(traced)
        values = per_layer(
            traced, tracer, plain, replays["hashing.fold_ns_per_key"][0]
        )
    finally:
        traced.teardown()
    values.update(replays)
    values.update(metrics_cost(spec, seed))
    if trace_out:
        tracer.write_sample(trace_out)
    metrics = {name: (value, unit, 0) for name, (value, unit) in values.items()}
    detail = {
        "outcomes": traced.oracle.outcomes,
        "environment": plain.environment(),
    }
    return [plain, traced], metrics, detail


def run_workload(
    name: str, seed: int, seconds: float, trace: bool,
    smoke: bool = False, trace_out: Optional[str] = None,
) -> Dict[str, object]:
    """One pass of one workload in this process; returns the full result."""
    spec = WORKLOADS[name]
    rounds = None
    if smoke:
        spec, rounds = smoke_spec(spec), SMOKE_ROUNDS
    if trace:
        drivers, metrics, detail = traced_pass(spec, seed, seconds, rounds, trace_out)
    else:
        drivers, metrics, detail = end_to_end_pass(spec, seed, seconds, rounds)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    violations = [v for driver in drivers for v in driver.violations]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not violations,
        "attempted": sum(driver.attempted for driver in drivers),
        "failed": sum(driver.failed for driver in drivers),
        "violations": violations,
        # Exactly the declared names: a missing one is a KeyError, not a gap.
        "metrics": {
            entry["name"]: {
                "value": metrics[entry["name"]][0],
                "unit": entry["unit"],
                "n": metrics[entry["name"]][2],
            }
            for entry in declared
        },
        **detail,
    }


def contract_line(result: Dict[str, object]) -> str:
    """The driver's last line: exactly correct / attempted / failed / metrics."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result["metrics"].items()
        },
    })


def describe(result: Dict[str, object]) -> str:
    """Human-readable lines: every metric by name, with unit and sample count."""
    env = result["environment"]
    lines = [
        f"== {result['workload']} seed={result['seed']} "
        f"{'traced pass (per-layer)' if result['trace'] else 'end-to-end pass'}: "
        f"closed loop, 1 client, 1 thread, in-process loopback "
        f"(no real link crossed), {env['rounds']} rounds"
    ]
    for name, m in result["metrics"].items():
        count = f"  n={m['n']}" if m["n"] else ""
        lines.append(f"  {name:<48} {m['value']:>16.6g} {m['unit']}{count}")
    lines.append(
        f"  outcomes {result['outcomes']}  attempted={result['attempted']} "
        f"failed={result['failed']}"
    )
    lines.append(
        f"  noise: segment IQR/median={env['segment_iqr_ratio']:.4f} "
        f"loadavg={env['loadavg_1m']:.2f} "
        f"whole-run point p50={env['point_p50_whole_run_us']:.1f} "
        f"p99={env['point_p99_whole_run_us']:.1f} us"
        + ("  NOISY" if env["noisy"] else "")
    )
    for violation in result["violations"]:
        lines.append(f"  VIOLATION: {violation}")
    return "\n".join(lines)


def fingerprint() -> Dict[str, object]:
    """Where and on what a run was made (for the ledger)."""
    import numpy

    def git(*args: str) -> str:
        try:
            return subprocess.run(
                ("git", "-C", str(ROOT)) + args, capture_output=True,
                text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return ""

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "sha": git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(git("status", "--porcelain")),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def record(results: List[Dict[str, object]], stamp: Dict[str, object]) -> None:
    """Append one ledger line per end-to-end result (never rewrites)."""
    with LEDGER.open("a") as ledger:
        for result in results:
            if result["trace"]:
                continue
            ledger.write(json.dumps({
                **stamp,
                "workload": result["workload"],
                "seed": result["seed"],
                "seconds": result["seconds"],
                "correct": result["correct"],
                "noisy": result["environment"]["noisy"],
                "metrics": {
                    name: m["value"] for name, m in result["metrics"].items()
                },
            }) + "\n")


def run_child(name: str, args, trace: int) -> Dict[str, object]:
    """One pass in a fresh interpreter; returns its ``--out`` result."""
    out = Path(__file__).resolve().parent / f".result-{os.getpid()}.json"
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--out", str(out),
    ] + (["--smoke"] if args.smoke else [])
    try:
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        # The child's own last line is for the driver; show the rest.
        print("\n".join(completed.stdout.splitlines()[:-1]), flush=True)
        if not out.exists():
            raise SystemExit(f"{name} --trace {trace} produced no result")
        return json.loads(out.read_text())["results"][0]
    finally:
        out.unlink(missing_ok=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=BENCHMARK["run_seconds"],
        help="length of the measured loop (the traced pass does a quarter)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="an eighth of every size, two rounds (tests)")
    parser.add_argument("--out", help="write the full results as JSON")
    parser.add_argument("--trace-out", help="write a capped span sample (JSONL)")
    parser.add_argument("--record", action="store_true",
                        help=f"append end-to-end rows to {LEDGER.name}")
    args = parser.parse_args(argv)

    if args.workload:
        passes = (args.trace or 0,)
        results = [
            run_workload(
                args.workload, args.seed, args.seconds, bool(trace),
                smoke=args.smoke, trace_out=args.trace_out,
            )
            for trace in passes
        ]
        for result in results:
            print(describe(result))
    else:
        results = [
            run_child(name, args, trace)
            for name in WORKLOADS
            for trace in ((0, 1) if args.trace is None else (args.trace,))
        ]
    stamp = fingerprint() if args.out or args.record else {}
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"claim": None, "fingerprint": stamp, "results": results}, indent=1,
        ))
    if args.record:
        record(results, stamp)
    if args.workload:
        print(contract_line(results[-1]))
    else:
        print(json.dumps({
            "correct": all(result["correct"] for result in results),
            "runs": len(results),
        }))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
