"""Observability overhead: the registry must be ~free when disabled.

The ``repro.obs`` layer promises two numbers (recorded to
``BENCH_obs.json`` alongside this file):

- *disabled*: a disabled :class:`~repro.obs.MetricsRegistry` hands every
  component the shared null singletons, so the instrumented hot paths pay
  one no-op method call -- this mode is the baseline by construction;
- *enabled*: full counting (batch counter increments, gated stage timing,
  slot-overwrite detection) must stay within 15% of the disabled baseline
  on the in-process ``put_many`` hot path, the bar ``make bench-obs`` enforces.
"""

import json
import pathlib
import time

from repro import obs
from repro.core.config import DartConfig
from repro.collector.store import DartStore
from repro.experiments.reporting import print_experiment

#: Where the overhead comparison records its rows.
OBS_ARTIFACT = pathlib.Path(__file__).parent / "BENCH_obs.json"

#: The acceptance bar: enabled-mode overhead on in-process put_many.
MAX_ENABLED_OVERHEAD = 0.15


def _time_best_of(func, repeats=5):
    """Best wall-clock of ``repeats`` runs; each run builds fresh state."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def obs_overhead_rows(reports: int = 4_000) -> list:
    """Time ``put_many`` under a disabled and an enabled registry.

    The store (and every component under it) captures its metrics at
    construction, so each run swaps the process registry, builds a fresh
    store, runs the identical batched-report workload, and restores the
    previous registry.
    """
    config = DartConfig(slots_per_collector=1 << 16, num_collectors=2)
    items = [(("flow", i), (i % 251).to_bytes(20, "big")) for i in range(reports)]

    def run_with(enabled: bool):
        def run():
            previous = obs.set_registry(obs.MetricsRegistry(enabled=enabled))
            try:
                DartStore(config).put_many(items)
            finally:
                obs.set_registry(previous)

        return run

    timings = {
        "disabled": _time_best_of(run_with(False)),
        "enabled": _time_best_of(run_with(True)),
    }
    baseline = timings["disabled"]
    rows = []
    for mode, seconds in timings.items():
        rows.append(
            {
                "mode": mode,
                "reports": reports,
                "seconds": round(seconds, 6),
                "reports_per_sec": round(reports / seconds, 1),
                "overhead_vs_disabled": round(seconds / baseline - 1.0, 4),
            }
        )
    return rows


def test_obs_overhead(run_once, full_scale):
    """Enabled-mode overhead on in-process put_many must stay within 15%."""
    reports = 20_000 if full_scale else 4_000
    rows = run_once(obs_overhead_rows, reports=reports)
    print_experiment("Observability overhead: disabled vs enabled", rows)
    by_mode = {row["mode"]: row for row in rows}
    assert by_mode["disabled"]["overhead_vs_disabled"] == 0.0
    assert by_mode["enabled"]["overhead_vs_disabled"] <= MAX_ENABLED_OVERHEAD
    OBS_ARTIFACT.write_text(json.dumps(rows, indent=2) + "\n")


def test_disabled_registry_records_nothing():
    """The disabled run really is uninstrumented: no series materialise."""
    registry = obs.MetricsRegistry(enabled=False)
    previous = obs.set_registry(registry)
    try:
        store = DartStore(DartConfig(slots_per_collector=1 << 10))
        store.put(("flow", 1), b"\x01" * 20)
        store.get(("flow", 1))
    finally:
        obs.set_registry(previous)
    assert registry.names() == []
    assert registry.to_prometheus() == ""
