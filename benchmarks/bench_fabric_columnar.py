"""CI gate for the columnar batch datapath (``make bench-fabric-columnar``).

Absolute rates over the shared fabric-delivery comparison, each against
its own recorded value in ``benchmarks/BENCH_fabric.json``:

- every mode -- the batched ones the datapath exists for
  (``packet_columnar``, ``report_batch``) and the scalar ones they are
  diffed against (``packet_inline``, ``per_report``) -- must read at least
  90% of its recorded reports/sec;
- the scalar packet path must also hold the gain of its C-speed codecs:
  ``packet_inline`` at least twice the 4 449 reports/sec it recorded
  before them.

The ``speedup`` column (each mode over its scalar baseline, same run) is
recorded as information only: as a gate it punished making the scalar
path faster.  The run's rows replace ``benchmarks/BENCH_fabric.json``, so
the artifact always reflects the gated measurement.
"""

import json

from repro.experiments.reporting import print_experiment

from bench_core_throughput import FABRIC_ARTIFACT, fabric_delivery_rows, gated_rows

#: ``packet_inline`` before the zlib iCRC / one-pass codecs, times two.
SCALAR_PACKET_FLOOR = 2 * 4_449.0


def test_columnar_packet_path_gate(run_once, full_scale):
    """Every mode holds 90% of its recorded rate; the scalar packet path its 2x."""
    rows, shortfalls = gated_rows(
        run_once, fabric_delivery_rows, FABRIC_ARTIFACT, "reports_per_sec", "reports",
        reports=20_000 if full_scale else 4_000,
    )
    print_experiment("Columnar packet datapath gate", rows)
    by_mode = {row["mode"]: row for row in rows}

    assert not shortfalls, "; ".join(shortfalls)
    scalar = by_mode["packet_inline"]["reports_per_sec"]
    assert scalar >= SCALAR_PACKET_FLOOR, (
        f"scalar packet path at {scalar} reports/sec, "
        f"need >= {SCALAR_PACKET_FLOOR}"
    )

    FABRIC_ARTIFACT.write_text(json.dumps(rows, indent=2) + "\n")
