"""Library microbenchmarks: the hot paths a downstream user exercises.

Not a paper exhibit -- these track the model's own performance so that
simulator or codec regressions show up in CI: store put/get, vectorised
simulation throughput, addressing, RoCEv2 codec round-trips, and the
per-report vs batched fabric delivery paths (recorded to
``BENCH_fabric.json`` alongside this file).
"""

import json
import pathlib
import random
import time

from repro.core.addressing import DartAddressing
from repro.core.config import DartConfig
from repro.core.simulator import SimulationSpec, simulate
from repro.collector.store import DartStore
from repro.experiments.reporting import print_experiment
from repro.fabric import InlineFabric
from repro.hashing.hash_family import fold_key, fold_keys
from repro.rdma.packets import Bth, Opcode, Reth, RoceV2Packet

#: Where the fabric delivery comparison records its rows.
FABRIC_ARTIFACT = pathlib.Path(__file__).parent / "BENCH_fabric.json"


def test_store_put_kernel(benchmark):
    store = DartStore(DartConfig(slots_per_collector=1 << 16))
    counter = [0]

    def put():
        counter[0] += 1
        return store.put(("flow", counter[0]), b"\x01" * 20)

    copies = benchmark(put)
    assert copies == 2


def test_store_get_kernel(benchmark):
    store = DartStore(DartConfig(slots_per_collector=1 << 16))
    for i in range(1000):
        store.put(("flow", i), i.to_bytes(20, "big"))
    counter = [0]

    def get():
        counter[0] = (counter[0] + 1) % 1000
        return store.get(("flow", counter[0]))

    result = benchmark(get)
    assert result.answered


def test_simulator_throughput(benchmark):
    """Keys simulated per second in the vectorised path."""
    spec = SimulationSpec(num_keys=1 << 17, num_slots=1 << 17, redundancy=2)
    result = benchmark.pedantic(simulate, args=(spec,), rounds=3, iterations=1)
    assert 0 < result.success_rate < 1


def test_addressing_kernel(benchmark):
    addressing = DartAddressing(DartConfig(slots_per_collector=1 << 20))
    counter = [0]

    def resolve():
        counter[0] += 1
        return addressing.resolve(("flow", counter[0]))

    resolved = benchmark(resolve)
    assert len(resolved.slot_indexes) == 2


def test_addressing_vectorised_kernel(benchmark):
    addressing = DartAddressing(DartConfig(slots_per_collector=1 << 20))
    lanes = fold_keys(range(1 << 16))
    _collectors, _checksums, slots = benchmark(addressing.resolve_folded, lanes)
    assert slots.shape == (2, len(lanes))


def test_fold_kernel(benchmark):
    """The batch key fold on the two key shapes ``perf/`` writes: flow
    5-tuples (stores) and flow strings (fleets), 4096 of each per call."""
    rng = random.Random(7)
    tuples = [
        (f"10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(256)}",
         f"10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(256)}",
         rng.randrange(1024, 65536), rng.randrange(1, 1024), 6)
        for _ in range(4096)
    ]
    texts = ["%s:%d>%s:%d/%d" % (src, sport, dst, dport, proto)
             for src, dst, sport, dport, proto in tuples]
    tuple_lanes, text_lanes = benchmark(lambda: (fold_keys(tuples), fold_keys(texts)))
    sample = range(0, 4096, 64)
    assert [tuple_lanes[i] for i in sample] == [fold_key(tuples[i]) for i in sample]
    assert [text_lanes[i] for i in sample] == [fold_key(texts[i]) for i in sample]


#: How far under its recorded rate a mode may read before a gate fails:
#: best-of-three timings of an unchanged tree repeat within a few percent.
RATE_REGRESSION = 0.9


def recorded_rows(artifact: pathlib.Path) -> dict:
    """Previously recorded rows by mode ({} when no artifact exists)."""
    if not artifact.exists():
        return {}
    return {row["mode"]: row for row in json.loads(artifact.read_text())}


def rate_shortfalls(rows: list, recorded: dict, rate: str, size: str) -> list:
    """One message per mode whose ``rate`` fell under its recorded one's floor.

    Absolute rates, not ratios between modes: a ratio against the scalar
    path fails when the scalar path gets *faster*.  Rows recorded at
    another workload ``size`` (``--repro-full``) are not comparable and
    are skipped.
    """
    messages = []
    for row in rows:
        previous = recorded.get(row["mode"])
        if previous is None or previous[size] != row[size]:
            continue
        floor = RATE_REGRESSION * previous[rate]
        if row[rate] < floor:
            messages.append(
                f"{row['mode']}: {row[rate]} {rate} < {floor:.1f} "
                f"({RATE_REGRESSION:.0%} of recorded {previous[rate]})"
            )
    return messages


def gated_rows(run_once, measure, artifact, rate: str, size: str, **kwargs):
    """``measure``'s rows and their shortfalls against the recorded artifact.

    A burst of host noise slows a whole run by up to two thirds whatever
    the estimator (perf/README.md, *Noise floor*), and a regression
    repeats: a run with shortfalls is measured once more before it counts.
    """
    recorded = recorded_rows(artifact)
    rows = run_once(measure, **kwargs)
    shortfalls = rate_shortfalls(rows, recorded, rate, size)
    if shortfalls:
        rows = measure(**kwargs)
        shortfalls = rate_shortfalls(rows, recorded, rate, size)
    return rows, shortfalls


def best_seconds(modes, rounds=5) -> dict:
    """Best wall-clock per mode over ``rounds``; each run builds fresh state.

    ``modes`` is ``(name, func)`` pairs.  The modes take turns inside each
    round, so a burst of host noise costs every mode one round instead of
    costing one mode all of its runs -- which is what lets the gates
    compare absolute rates against a recorded run.
    """
    best = {name: float("inf") for name, _func in modes}
    for _ in range(rounds):
        for name, func in modes:
            start = time.perf_counter()
            func()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def fabric_delivery_rows(reports: int = 4_000) -> list:
    """Per-report vs batched delivery, in-process and packet-level.

    Four modes over the identical workload -- the scalar and the columnar
    granularity of each store flavour:

    - ``per_report``       -- in-process ``put`` per report (scalar
      addressing, one key fold per hash-family member);
    - ``report_batch``     -- in-process ``put_many`` (one columnar
      :class:`~repro.core.batch.ReportBatch`, one region scatter per
      collector);
    - ``packet_inline``    -- full RoCEv2 path, ``put`` per report: one
      ``fabric.send`` per frame through an :class:`InlineFabric`;
    - ``packet_columnar``  -- full RoCEv2 path as one columnar
      :class:`~repro.rdma.FrameBatch` per ``put_many`` (the batch
      datapath: vectorised encode, iCRC, validation and region scatter).

    Each row names its ``baseline`` mode; ``speedup`` is relative to that
    row's baseline within the same run.
    """
    config = DartConfig(slots_per_collector=1 << 16, num_collectors=2)
    items = [(("flow", i), (i % 251).to_bytes(20, "big")) for i in range(reports)]

    def per_report():
        store = DartStore(config)
        for key, value in items:
            store.put(key, value)

    def report_batch():
        DartStore(config).put_many(items)

    def packet_inline():
        store = DartStore(config, packet_level=True, fabric=InlineFabric())
        for key, value in items:
            store.put(key, value)

    def packet_columnar():
        DartStore(
            config, packet_level=True, fabric=InlineFabric()
        ).put_many(items)

    modes = [
        ("per_report", per_report),
        ("report_batch", report_batch),
        ("packet_inline", packet_inline),
        ("packet_columnar", packet_columnar),
    ]
    timings = best_seconds(modes)
    rows = []
    for name, _func in modes:
        seconds = timings[name]
        baseline = "packet_inline" if name.startswith("packet") else "per_report"
        rows.append(
            {
                "mode": name,
                "baseline": baseline,
                "reports": reports,
                "seconds": round(seconds, 6),
                "reports_per_sec": round(reports / seconds, 1),
                "speedup": round(timings[baseline] / seconds, 3),
            }
        )
    return rows


def test_fabric_delivery_comparison(run_once, full_scale):
    """The batched write path must beat per-report by >= 1.5x."""
    reports = 20_000 if full_scale else 4_000
    rows = run_once(fabric_delivery_rows, reports=reports)
    print_experiment("Fabric delivery: per-report vs batched", rows)
    by_mode = {row["mode"]: row for row in rows}
    # The tentpole acceptance bar: batching amortises key folds and slot
    # writes into >= 1.5x over the scalar path.
    assert by_mode["report_batch"]["speedup"] >= 1.5
    FABRIC_ARTIFACT.write_text(json.dumps(rows, indent=2) + "\n")


def test_rocev2_codec_kernel(benchmark):
    packet = RoceV2Packet(
        bth=Bth(opcode=int(Opcode.RC_RDMA_WRITE_ONLY), dest_qp=1, psn=0),
        reth=Reth(virtual_address=0x10000, rkey=1, dma_length=24),
        payload=b"\x01" * 24,
    )

    def roundtrip():
        return RoceV2Packet.unpack(packet.pack())

    decoded = benchmark(roundtrip)
    assert decoded.payload == packet.payload
