"""CI gate for the DTA primitive translators (``make bench-primitives``).

Key-Increment and Append are measured twice over an identical workload,
Sketch-Merge (which has no per-op entry) once:

- ``*_per_op``  -- the scalar path, one stamped frame and one
  ``fabric.send`` per operation (per-record tail reservation for Append);
- ``*_batch``   -- the columnar path: one pooled frame batch per call
  (template + patch encode, vectorised iCRC) through ``send_batch``.

The gate asserts absolute rates: every mode at least 90% of its recorded
ops/sec in ``benchmarks/BENCH_primitives.json``, and every per-op mode at
least the rate it recorded before the scalar codecs went to C speed.  It
then records the rows to that file (same shape as ``BENCH_fabric.json``:
every row names its ``baseline`` mode, its primitive's first, and carries a
within-run ``speedup``, which is information, not a gate -- as one it
punished making the per-op path faster).
"""

import json
import pathlib

import numpy as np

from repro.collector.counters import CounterStore
from repro.experiments.reporting import print_experiment
from repro.primitives import AppendStore

from bench_core_throughput import best_seconds, gated_rows

#: Where the primitive throughput comparison records its rows.
PRIMITIVES_ARTIFACT = pathlib.Path(__file__).parent / "BENCH_primitives.json"

#: ops/sec each per-op mode recorded (1 000 ops) before the zlib iCRC /
#: one-pass codecs; the scalar lowering must not fall back under them.
PER_OP_RATE_FLOORS = {
    "key_increment_per_op": 5_215.1,
    "append_per_op": 3_687.0,
}


def _rows_for(ops, *modes):
    """One row per ``(mode, func)`` of a primitive; the first is the baseline."""
    baseline = modes[0][0]
    timings = best_seconds(modes)
    per_op_seconds = timings[baseline]
    rows = []
    for mode, seconds in timings.items():
        rows.append(
            {
                "mode": mode,
                "baseline": baseline,
                "ops": ops,
                "seconds": round(seconds, 5),
                "ops_per_sec": round(ops / seconds, 1),
                "speedup": round(per_op_seconds / seconds, 3),
            }
        )
    return rows


def primitive_rows(ops: int = 1_000) -> list:
    """Per-op vs batched lowering for Append / Key-Increment, batched Sketch-Merge.

    The workloads run the full packet path -- translator encode, fabric
    delivery, NIC validation, region DMA -- against fresh collector-side
    stores per timing run, so the rows compare lowering strategies, not
    warm caches.
    """
    rows = []

    # Key-Increment: `ops` skewed keys, 2 FETCH_ADDs per key (rows=2).
    items = [(("flow", i % 97), 1 + i % 3) for i in range(ops)]

    def increment_per_op():
        store = CounterStore(cells_per_row=1 << 12, rows=2)
        for key, amount in items:
            store.add(key, amount)

    def increment_batch():
        CounterStore(cells_per_row=1 << 12, rows=2).add_many(items)

    rows += _rows_for(
        ops, ("key_increment_per_op", increment_per_op), ("key_increment_batch", increment_batch)
    )

    # Append: `ops` fixed-width records into a ring that wraps ~4 times.
    records = [i.to_bytes(8, "big") for i in range(ops)]

    def append_per_op():
        writer = AppendStore(capacity=max(ops // 4, 8)).register_writer(0)
        for record in records:
            writer.append(record)

    def append_batch():
        writer = AppendStore(capacity=max(ops // 4, 8)).register_writer(0)
        writer.append_many(records)

    rows += _rows_for(ops, ("append_per_op", append_per_op), ("append_batch", append_batch))

    # Sketch-Merge: a source matrix with exactly `ops` non-zero cells.
    cells = np.zeros((2, 1 << 12), dtype=np.uint64)
    cells.reshape(-1)[:ops] = 1 + np.arange(ops, dtype=np.uint64) % 251

    def merge_batch():
        CounterStore(cells_per_row=1 << 12, rows=2).merger().merge(cells)

    rows += _rows_for(ops, ("sketch_merge_batch", merge_batch))
    return rows


def test_primitive_batch_gate(run_once, full_scale):
    """Every mode holds 90% of its recorded rate; per-op modes their old rate."""
    rows, shortfalls = gated_rows(
        run_once, primitive_rows, PRIMITIVES_ARTIFACT, "ops_per_sec", "ops",
        ops=5_000 if full_scale else 1_000,
    )
    print_experiment("DTA primitive lowering gate", rows)
    by_mode = {row["mode"]: row for row in rows}

    assert not shortfalls, "; ".join(shortfalls)
    for mode, floor in PER_OP_RATE_FLOORS.items():
        assert by_mode[mode]["ops_per_sec"] >= floor, (
            f"{mode} at {by_mode[mode]['ops_per_sec']} ops/sec, need >= {floor}"
        )
    PRIMITIVES_ARTIFACT.write_text(json.dumps(rows, indent=2) + "\n")
