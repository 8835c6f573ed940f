"""CI gate for the columnar batch datapath (``make bench-fabric-columnar``).

Two regression bars over the shared fabric-delivery comparison:

- the columnar packet path (``packet_columnar``) must hold its headline
  win: >= 10x the scalar per-frame packet path (``packet_inline``)
  measured in the same run;
- the in-process batch row (``report_batch``: ``put_many`` as one
  columnar region scatter per collector) must not regress by more than
  5% relative to its recorded speedup over per-report ``put``.

The run's rows replace ``benchmarks/BENCH_fabric.json``, so the artifact
always reflects the gated measurement.
"""

import json

from repro.experiments.reporting import print_experiment

from bench_core_throughput import FABRIC_ARTIFACT, fabric_delivery_rows

#: The tentpole acceptance bar: whole-batch frames through switch, fabric,
#: NIC and region must beat per-frame Python objects by this factor.
COLUMNAR_SPEEDUP_FLOOR = 10.0

#: Allowed slowdown of the recorded ``report_batch`` speedup (5%).
SLOT_BATCH_REGRESSION = 0.95


def _recorded_rows() -> dict:
    """Previously recorded rows by mode ({} when no artifact exists)."""
    if not FABRIC_ARTIFACT.exists():
        return {}
    return {row["mode"]: row for row in json.loads(FABRIC_ARTIFACT.read_text())}


def test_columnar_packet_path_gate(run_once, full_scale):
    """Columnar >= 10x scalar packet path; slot-batch rows hold steady."""
    recorded = _recorded_rows()
    reports = 20_000 if full_scale else 4_000
    rows = run_once(fabric_delivery_rows, reports=reports)
    print_experiment("Columnar packet datapath gate", rows)
    by_mode = {row["mode"]: row for row in rows}

    columnar = by_mode["packet_columnar"]
    assert columnar["baseline"] == "packet_inline"
    assert columnar["speedup"] >= COLUMNAR_SPEEDUP_FLOOR, (
        f"columnar packet path at {columnar['speedup']}x scalar, "
        f"need >= {COLUMNAR_SPEEDUP_FLOOR}x"
    )

    # Speedups are within-run ratios, so comparing against the recorded
    # artifact is stable across machines in a way raw reports/sec is not.
    previous = recorded.get("report_batch")
    if previous is not None and "speedup" in previous:
        floor = SLOT_BATCH_REGRESSION * previous["speedup"]
        assert by_mode["report_batch"]["speedup"] >= floor, (
            f"report_batch speedup {by_mode['report_batch']['speedup']}x "
            f"fell below {floor:.3f}x (95% of recorded "
            f"{previous['speedup']}x)"
        )

    FABRIC_ARTIFACT.write_text(json.dumps(rows, indent=2) + "\n")
