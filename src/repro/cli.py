"""Command-line interface: ``python -m repro <command>``.

Operator-facing entry points over the library:

- ``simulate`` -- run the slot-level simulator at a given load/config and
  print success/empty/error rates next to the closed-form prediction;
- ``plan`` -- size a deployment: memory per flow for a target success rate;
- ``theory`` -- tabulate the section-4 closed forms over load/N grids;
- ``trace`` -- run fat-tree INT path tracing end to end and evaluate it;
- ``experiments`` -- regenerate every paper exhibit (see
  :mod:`repro.experiments.__main__`);
- ``obs`` -- run an instrumented packet-level pipeline and inspect it:
  ``snapshot`` (one health dashboard / exposition, ``--node`` filters to
  one host), ``watch`` (per-tick dashboard re-renders with sparkline
  trends), ``alerts`` (the SLO engine incl. paper-model conformance
  rules), ``profile`` (wall-clock stage profile, optionally exported as
  a Chrome ``trace_event`` file), ``fleet`` (per-node fleet dashboard
  plus the self-telemetry exporter's one-sided read-back) and ``bundle``
  (dump a postmortem debug bundle: metrics, journal tail, alert states);
- ``control`` -- failover demo: run the packet-level pipeline with a
  standby collector, crash one collector mid-run and watch the fleet
  controller detect the failure, re-provision every switch and converge;
- ``primitives`` -- demo the full DTA primitive set (Append rings,
  Key-Increment counters, Sketch-Merge) over a chosen fabric flavour and
  print the cross-layer counter reconciliation;
- ``query`` -- run one declarative query (filter / aggregate / top-k over
  keys, counters, sketch estimates or append rings) against a populated
  demo fleet through the :mod:`repro.query` front end; ``--explain``
  prints the shard fan-out plan instead of executing it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core import theory
from repro.core.policies import ReturnPolicy
from repro.core.simulator import SimulationSpec, simulate, simulate_cas_strategy
from repro.experiments.headline import memory_for_target_success
from repro.experiments.reporting import format_table


def _parse_floats(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part]


def _parse_ints(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part]


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = SimulationSpec(
        num_keys=max(1, int(args.load * args.slots)),
        num_slots=args.slots,
        redundancy=args.redundancy,
        checksum_bits=args.checksum_bits,
        policy=ReturnPolicy(args.policy),
        seed=args.seed,
    )
    result = simulate_cas_strategy(spec) if args.cas else simulate(spec)
    rows = [
        {
            "strategy": "write+cas" if args.cas else f"{args.redundancy}x write",
            "load_factor": spec.load_factor,
            "keys": spec.num_keys,
            "success_rate": result.success_rate,
            "empty_rate": result.empty_rate,
            "error_rate": result.error_rate,
            "theory_success": float(
                theory.average_queryability(spec.load_factor, spec.redundancy)
            ),
        }
    ]
    print(format_table(rows))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    rows = []
    for n in args.redundancy:
        sizing = memory_for_target_success(args.target, redundancy=n)
        row = dict(sizing)
        if args.flows:
            row["total_gb"] = sizing["bytes_per_flow_needed"] * args.flows / 1e9
        rows.append(row)
    print(format_table(rows))
    return 0


def _cmd_theory(args: argparse.Namespace) -> int:
    rows = []
    for alpha in args.loads:
        row = {"load_factor": alpha}
        for n in args.redundancy:
            row[f"avg_n{n}"] = float(theory.average_queryability(alpha, n))
        row["optimal_n"] = theory.optimal_redundancy(alpha, args.redundancy)
        rows.append(row)
    print(format_table(rows))
    return 0


def _trace_config(args: argparse.Namespace):
    """The ``trace`` run's config: ``--flows`` x ``--bytes-per-flow`` of memory."""
    from repro.core.config import DartConfig

    return DartConfig.for_memory_budget(
        args.bytes_per_flow * args.flows,
        redundancy=args.redundancy,
        value_bytes=20,
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.network.flows import FlowGenerator
    from repro.network.simulation import IntSimulation, LossModel
    from repro.network.topology import FatTreeTopology

    tree = FatTreeTopology(k=args.k)
    config = _trace_config(args)
    sim = IntSimulation(tree, config, loss=LossModel(args.loss, seed=args.seed))
    flows = FlowGenerator(tree.num_hosts, host_ip=tree.host_ip, seed=args.seed)
    sim.trace_flows(flows.uniform(args.flows))
    evaluation = sim.evaluate()
    print(
        format_table(
            [
                {
                    "fat_tree_k": args.k,
                    "flows": evaluation.total,
                    "bytes_per_flow": args.bytes_per_flow,
                    "report_loss": args.loss,
                    "success_rate": evaluation.success_rate,
                    "empty_rate": evaluation.empty / evaluation.total,
                    "error_rate": evaluation.error_rate,
                }
            ]
        )
    )
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.__main__ import main as experiments_main

    return experiments_main(["--full"] if args.full else [])


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.core.config import DartConfig
    from repro.collector.store import DartStore
    from repro.fabric.fabric import BufferedFabric
    from repro.fabric.impaired import ImpairedFabric

    mode = args.mode
    # A fresh registry/tracer/journal so the run covers exactly
    # this pipeline; the previous defaults are restored before returning.
    registry = obs.MetricsRegistry(enabled=True)
    tracer = obs.Tracer(sample_rate=args.sample_rate)
    journal = obs.EventJournal()
    if mode == "profile":
        profiler = obs.StageProfiler()
        registry.attach_profiler(profiler)
    previous_registry = obs.set_registry(registry)
    previous_tracer = obs.set_tracer(tracer)
    previous_journal = obs.set_journal(journal)
    try:
        config = DartConfig(
            slots_per_collector=args.slots,
            redundancy=args.redundancy,
            seed=args.seed,
        )
        fabric = ImpairedFabric(
            BufferedFabric(flush_threshold=args.flush_threshold),
            loss=args.loss,
            duplication=args.duplication,
            reordering=args.reordering,
            seed=args.seed,
        )
        store = DartStore(config, packet_level=True, fabric=fabric)
        scraper = obs.MetricsScraper(registry, persist_path=args.persist)
        engine = obs.SloEngine(scraper, registry)
        engine.add_rules(obs.default_rules())
        engine.add_rules(obs.conformance_rules(config))
        exporter = None
        if mode == "fleet":
            # Dogfood: export this run's own counters/journal through the
            # DTA datapath and read them back one-sided at the end.
            exporter = obs.SelfTelemetryExporter(registry, journal).attach(
                scraper
            )
        bundler = None
        if mode == "bundle":
            bundler = obs.AutoBundler(
                args.bundle_dir, registry=registry, journal=journal,
                engine=engine,
            ).install(engine)

        def trends() -> str:
            """Sparkline per-tick deltas of the headline families."""
            lines = ["== trends (per-tick deltas) =="]
            for name in (
                "fabric_frames_delivered",
                "nic_frames_received",
                "mem_writes",
                "queries_answered",
            ):
                points = scraper.total_series(name)
                if len(points) < 2:
                    continue
                values = [value for _tick, value in points]
                steps = [
                    max(0.0, after - before)
                    for before, after in zip(values, values[1:])
                ]
                lines.append(
                    f"{name:<28} {obs.sparkline(steps)}  last={steps[-1]:g}"
                )
            return "\n".join(lines)

        keys = [("10.0.0.1", f"10.0.1.{i % 250}", 5000 + i, 80, 6)
                for i in range(args.keys)]
        rounds = max(1, args.rounds)
        for tick in range(1, rounds + 1):
            lo = (tick - 1) * len(keys) // rounds
            hi = tick * len(keys) // rounds
            chunk = keys[lo:hi]
            store.put_many(
                (key, f"v{lo + i}".encode()) for i, key in enumerate(chunk)
            )
            fabric.flush()
            for key in chunk:
                store.get(key)
                store.get(key, policy=ReturnPolicy.FIRST_MATCH)
            journal.advance(tick)
            scraper.scrape(tick)
            engine.evaluate(tick)
            if mode == "watch":
                print(f"--- tick {tick}/{rounds} ---")
                print(obs.render_dashboard(registry))
                print()
                print(trends())
                print()

        if mode == "alerts":
            print(engine.render())
        elif mode == "profile":
            print(profiler.render())
            if args.chrome_trace:
                profiler.write_chrome_trace(args.chrome_trace)
                print(f"chrome trace written to {args.chrome_trace}")
        elif mode == "fleet":
            exporter.flush(tick=rounds)
            snapshot = registry.snapshot()
            if args.node:
                snapshot = snapshot.filter_labels(node=args.node)
            print(obs.render_fleet(snapshot))
            print()
            print("== self-telemetry (read back one-sided) ==")
            rows = []
            for name in (
                "nic_frames_received",
                "mem_writes",
                "queries_total",
            ):
                pair = exporter.reconcile([name])[name]
                remote = (
                    "lost" if pair["remote"] is None else pair["remote"]
                )
                rows.append(
                    {"family": name, "local": pair["local"], "remote": remote}
                )
            print(format_table(rows))
            events = exporter.follow_events()
            print(
                f"journal: {len(events)} event(s) tailed from the "
                f"telemetry ring"
            )
        elif mode == "bundle":
            path = bundler.dump(reason="cli", tick=rounds)
            auto = [p for p in bundler.paths[:-1]]
            if auto:
                print(f"{len(auto)} alert-triggered bundle(s):")
                for p in auto:
                    print(f"  {p}")
            print(f"bundle written to {path}")
            print()
            print("== journal tail ==")
            print(journal.render())
        elif mode == "trace":
            analyzer = obs.TraceAnalyzer()
            records = tracer.kept()
            source = "tail-retained"
            if not records:
                records = tracer.traces()
                source = "live"
            records = sorted(
                records, key=lambda r: r.duration, reverse=True
            )
            limit = args.trace or 3
            shown = min(limit, len(records))
            print(
                f"== {shown} of {len(records)} {source} traces "
                f"(slowest first; sample_rate={tracer.sample_rate}, "
                f"{tracer.traces_sampled_out} sampled out) =="
            )
            for record in records[:limit]:
                print()
                print(analyzer.render_waterfall(record))
                if args.critical_path:
                    print(analyzer.render_critical_path(record))
        elif mode == "snapshot":
            snapshot = registry.snapshot()
            if args.node:
                snapshot = snapshot.filter_labels(node=args.node)
            if args.format == "prom":
                print(snapshot.to_prometheus(), end="")
            elif args.format == "json":
                print(snapshot.to_json(indent=2))
            elif args.node:
                print(obs.render_dashboard(registry, node=args.node))
            else:
                print(obs.render_dashboard(registry))
                nodes = snapshot.label_values(obs.NODE_LABEL)
                if nodes:
                    print()
                    print(obs.render_fleet(snapshot))
        if args.trace and mode != "trace":
            print()
            print(f"== first {args.trace} report-batch traces ==")
            for record in tracer.traces(kind="switch_batch")[: args.trace]:
                print(record.render())
        return 0
    finally:
        obs.set_registry(previous_registry)
        obs.set_tracer(previous_tracer)
        obs.set_journal(previous_journal)


def _cmd_control(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.core import theory
    from repro.core.config import DartConfig
    from repro.network.flows import FlowGenerator
    from repro.network.packet_sim import PacketLevelIntNetwork
    from repro.network.simulation import encode_path
    from repro.network.topology import FatTreeTopology

    # A fresh registry so the printed controller metrics cover exactly
    # this run; the previous default is restored before returning.
    registry = obs.MetricsRegistry(enabled=True)
    previous_registry = obs.set_registry(registry)
    try:
        tree = FatTreeTopology(k=args.k)
        config = DartConfig(
            slots_per_collector=args.slots,
            redundancy=args.redundancy,
            num_collectors=args.collectors,
            seed=args.seed,
        )
        net = PacketLevelIntNetwork(
            tree, config, num_standbys=args.standbys
        )
        controller = net.enable_control(
            fail_after=args.fail_after, tick_interval=args.tick_interval
        )
        flows = FlowGenerator(
            tree.num_hosts, host_ip=tree.host_ip, seed=args.seed
        ).uniform(args.flows)
        kill_at = args.flows // 2
        victim = args.victim % config.num_collectors
        print(
            f"packet-level run: {args.flows} flows, "
            f"{config.num_collectors} collectors + {args.standbys} standby, "
            f"killing node {victim} after {kill_at} packets"
        )
        printed = 0
        converged_at = None
        for index, flow in enumerate(flows):
            if index == kill_at:
                net.kill_collector(victim)
                print(f"[packet {index}] node {victim} crashed (silently)")
            net.send(flow)
            while printed < len(controller.events):
                print(f"[packet {index}] {controller.events[printed].describe()}")
                printed += 1
                if converged_at is None:
                    converged_at = index
        if not controller.events:
            print("no failover occurred (victim never confirmed dead)")
            return 1
        # Queryability for flows traced entirely after convergence.
        answered = 0
        checked = 0
        for flow in flows[converged_at + 1:]:
            path = tree.path(flow.src_host, flow.dst_host, flow.five_tuple)
            result = net.query_path(flow)
            checked += 1
            if result.value is not None and result.value == encode_path(path):
                answered += 1
        load = (
            args.flows * config.redundancy
            / (config.num_collectors * config.slots_per_collector)
        )
        print()
        print(
            format_table(
                [
                    {
                        "packets": net.packets_sent,
                        "failovers": int(
                            registry.total("controller_failovers_total")
                        ),
                        "post_failover_queries": checked,
                        "post_failover_answered": answered,
                        "success_rate": answered / max(1, checked),
                        "theory_success": float(
                            theory.average_queryability(
                                load, config.redundancy
                            )
                        ),
                    }
                ]
            )
        )
        print()
        print("== membership ==")
        for member in controller.membership.members:
            role = "-" if member.role is None else str(member.role)
            print(
                f"node {member.node_id}: {member.state.value:<8} role={role}"
            )
        print()
        print("== controller metrics ==")
        for name in (
            "controller_failovers_total",
            "controller_probes_sent",
            "controller_probes_failed",
        ):
            print(f"{name:<32} {registry.total(name):g}")
        return 0
    finally:
        obs.set_registry(previous_registry)


def _cmd_primitives(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.collector.counters import CounterStore
    from repro.fabric.fabric import BufferedFabric, InlineFabric
    from repro.fabric.impaired import ImpairedFabric
    from repro.obs.health import PipelineHealth
    from repro.primitives import AppendStore, SwitchSketch
    from repro.primitives.sketch import SketchStore
    from repro.primitives import theory as primitive_theory

    def make_fabric():
        """One transport of the requested flavour per primitive store."""
        if args.fabric == "inline":
            return InlineFabric()
        if args.fabric == "buffered":
            return BufferedFabric(flush_threshold=64)
        return ImpairedFabric(InlineFabric(), loss=args.loss, seed=args.seed)

    # A fresh registry so the reconciliation covers exactly this run; the
    # previous default is restored before returning.
    registry = obs.MetricsRegistry(enabled=True)
    previous_registry = obs.set_registry(registry)
    try:
        rows = []

        # Append: round-robin writers into one ring, then recover.
        ring = AppendStore(
            capacity=args.capacity, record_bytes=16, fabric=make_fabric()
        )
        writers = [ring.register_writer(i) for i in range(args.writers)]
        for index in range(args.events):
            writer = writers[index % len(writers)]
            writer.append(b"ev-%d" % index)
        snapshot = ring.recover()
        overwrites = sum(w.c_overwrites.value for w in writers)
        predicted_loss = primitive_theory.ring_loss_probability(
            snapshot.tail, args.capacity, args.loss if args.fabric == "impaired" else 0.0
        )
        rows.append(
            {
                "primitive": "append",
                "ops": args.events,
                "frames": sum(w.c_appends.value for w in writers)
                + sum(w.c_reserve_retries.value for w in writers),
                "result": f"recovered {len(snapshot)}/{snapshot.tail}",
                "detail": f"overwrites={overwrites} "
                f"predicted_unreadable={predicted_loss:.3f}",
            }
        )

        # Key-Increment: a skewed key stream through the columnar path.
        counters = CounterStore(
            cells_per_row=args.cells, rows=args.rows, fabric=make_fabric()
        )
        truth = {}
        items = []
        for index in range(args.events):
            key = ("flow", index % max(1, args.events // 8))
            items.append((key, 1))
            truth[key] = truth.get(key, 0) + 1
        frames = counters.add_many(items)
        epsilon, delta = counters.error_bound()
        worst = max(
            counters.estimate(key) - exact for key, exact in truth.items()
        )
        rows.append(
            {
                "primitive": "key_increment",
                "ops": len(truth),
                "frames": frames,
                "result": f"worst_overestimate={worst}",
                "detail": f"bound eps*total={epsilon * counters.total_count():.1f} "
                f"delta={delta:.3f}",
            }
        )

        # Sketch-Merge: two switch sketches folded into one bank.
        bank = SketchStore(
            cells_per_row=args.cells, rows=args.rows, fabric=make_fabric()
        )
        sketches = [
            SwitchSketch(cells_per_row=args.cells, rows=args.rows)
            for _switch in range(2)
        ]
        for index in range(args.events):
            sketches[index % 2].update(("flow", index % 16))
        merged_frames = sum(bank.merge_sketch(sketch) for sketch in sketches)
        rows.append(
            {
                "primitive": "sketch_merge",
                "ops": 2,
                "frames": merged_frames,
                "result": f"bank_total={bank.total_count()}",
                "detail": f"nic_atomics={bank.total_adds()}",
            }
        )

        print(format_table(rows))
        print()
        health = PipelineHealth.from_registry(registry)
        print("== reconciliation ==")
        print(f"fabric frames offered   {health.frames_offered}")
        print(f"nic frames received     {health.nic_frames_received}")
        print(f"nic atomics executed    {health.nic_atomics_executed}")
        print(f"memory atomics          {health.mem_atomics}")
        print(f"atomic bypass delta     {health.atomic_bypass_delta}")
        return 0
    finally:
        obs.set_registry(previous_registry)


def _query_demo_fleet(args: argparse.Namespace):
    """Build and populate the demo fleet ``repro query`` runs against."""
    from repro.query import QueryFleet, fabric_flavour

    fleet = QueryFleet(
        fabric_factory=fabric_flavour(
            args.fabric, loss=args.loss, seed=args.seed
        ),
        num_standbys=args.standbys,
    )
    keys = [f"flow-{index}" for index in range(args.keys)]
    fleet.put_many(
        (key, b"v%d" % index) for index, key in enumerate(keys)
    )
    fleet.count_many((key, index + 1) for index, key in enumerate(keys))
    fleet.sketch_many((key, 2 * index + 1) for index, key in enumerate(keys))
    for key in keys[: min(8, len(keys))]:
        fleet.append(key, key.encode())
    return fleet


def _cmd_query(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.query import QueryParseError, QueryService, parse_query

    # Parse before anything is built: a malformed query costs one line.
    try:
        parse_query(args.query)
    except QueryParseError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    registry = obs.MetricsRegistry(enabled=True)
    previous_registry = obs.set_registry(registry)
    try:
        fleet = _query_demo_fleet(args)
        service = QueryService(fleet)
        if args.explain:
            print(service.explain(args.query))
            return 0
        result = service.serve(args.query)
        answer = result.answer
        rows = [
            {
                key: (
                    value.decode("latin-1").rstrip("\x00")
                    if isinstance(value, bytes)
                    else value
                )
                for key, value in row.items()
            }
            for row in answer.rows
        ]
        if args.json:
            print(
                json.dumps(
                    {
                        "query": answer.query.canonical(),
                        "epoch": answer.epoch,
                        "value": answer.value,
                        "rows": rows,
                        "shards_total": answer.shards_total,
                        "shards_failed": answer.shards_failed,
                        "complete": answer.complete,
                    },
                    indent=2,
                )
            )
            return 0
        print(f"query:  {answer.query.canonical()}")
        print(
            f"epoch:  {answer.epoch}  shards: {answer.shards_total} "
            f"({answer.shards_failed} failed)"
        )
        if answer.value is not None:
            print(f"value:  {answer.value:g}")
        if rows:
            print(format_table(rows))
        elif answer.value is None:
            print("(no rows)")
        return 0
    finally:
        obs.set_registry(previous_registry)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro", description="DART (HotNets 2021) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate_p = sub.add_parser("simulate", help="run the slot-level simulator")
    simulate_p.add_argument("--load", type=float, default=0.8)
    simulate_p.add_argument("--slots", type=int, default=1 << 18)
    simulate_p.add_argument("--redundancy", type=int, default=2)
    simulate_p.add_argument("--checksum-bits", type=int, default=32)
    simulate_p.add_argument(
        "--policy",
        choices=[policy.value for policy in ReturnPolicy],
        default=ReturnPolicy.PLURALITY.value,
    )
    simulate_p.add_argument("--cas", action="store_true", help="WRITE+CAS strategy")
    simulate_p.add_argument("--seed", type=int, default=0)
    simulate_p.set_defaults(func=_cmd_simulate)

    plan_p = sub.add_parser("plan", help="memory sizing for a success target")
    plan_p.add_argument("--target", type=float, default=0.999)
    plan_p.add_argument("--redundancy", type=_parse_ints, default=[2, 4])
    plan_p.add_argument("--flows", type=int, default=0)
    plan_p.set_defaults(func=_cmd_plan)

    theory_p = sub.add_parser("theory", help="tabulate section-4 closed forms")
    theory_p.add_argument("--loads", type=_parse_floats, default=[0.1, 0.5, 1.0, 2.0])
    theory_p.add_argument("--redundancy", type=_parse_ints, default=[1, 2, 4])
    theory_p.set_defaults(func=_cmd_theory)

    trace_p = sub.add_parser("trace", help="fat-tree INT path tracing, end to end")
    trace_p.add_argument("--k", type=int, default=8)
    trace_p.add_argument("--flows", type=int, default=10_000)
    trace_p.add_argument("--bytes-per-flow", type=int, default=300)
    trace_p.add_argument("--redundancy", type=int, default=2)
    trace_p.add_argument("--loss", type=float, default=0.0)
    trace_p.add_argument("--seed", type=int, default=0)
    trace_p.set_defaults(func=_cmd_trace)

    experiments_p = sub.add_parser(
        "experiments", help="regenerate every paper exhibit"
    )
    experiments_p.add_argument("--full", action="store_true")
    experiments_p.set_defaults(func=_cmd_experiments)

    obs_p = sub.add_parser(
        "obs",
        help="run an instrumented packet-level pipeline, print its health",
    )
    obs_p.add_argument(
        "mode", nargs="?",
        choices=[
            "snapshot", "watch", "alerts", "profile", "fleet", "bundle",
            "trace",
        ],
        default="snapshot",
        help="snapshot: one dashboard (+ per-node fleet table); watch: "
             "per-tick re-renders with sparklines; alerts: the "
             "SLO/conformance engine; profile: wall-clock stage profile; "
             "fleet: per-node fleet dashboard with self-telemetry "
             "read-back; bundle: dump a postmortem debug bundle; trace: "
             "span-tree waterfalls of the slowest kept traces",
    )
    obs_p.add_argument(
        "--node", default=None, metavar="NODE",
        help="snapshot, watch, fleet: restrict output to one node's "
             "samples, e.g. collector-0 or switch-0",
    )
    obs_p.add_argument(
        "--bundle-dir", default="bundles", metavar="DIR",
        help="bundle mode: directory postmortem bundles are written to",
    )
    obs_p.add_argument("--keys", type=int, default=2000)
    obs_p.add_argument("--slots", type=int, default=4096)
    obs_p.add_argument("--redundancy", type=int, default=2)
    obs_p.add_argument("--loss", type=float, default=0.02)
    obs_p.add_argument("--duplication", type=float, default=0.01)
    obs_p.add_argument("--reordering", type=float, default=0.01)
    obs_p.add_argument("--flush-threshold", type=int, default=64)
    obs_p.add_argument("--seed", type=int, default=0)
    obs_p.add_argument(
        "--format", choices=["table", "prom", "json"], default="table"
    )
    obs_p.add_argument(
        "--trace", type=int, default=0, metavar="K",
        help="also print the first K report-batch traces (in trace mode: "
             "how many waterfalls to show, default 3)",
    )
    obs_p.add_argument(
        "--critical-path", action="store_true",
        help="trace mode: also print each trace's critical-path "
             "attribution (which stage bounded end-to-end latency)",
    )
    obs_p.add_argument(
        "--sample-rate", type=float, default=1.0,
        help="head-sampling probability for new traces (deterministic "
             "hash of the trace id)",
    )
    obs_p.add_argument(
        "--rounds", type=int, default=4,
        help="logical scrape ticks the workload is split across",
    )
    obs_p.add_argument(
        "--chrome-trace", metavar="PATH", default=None,
        help="profile mode: write a chrome://tracing trace_event file",
    )
    obs_p.add_argument(
        "--persist", metavar="PATH", default=None,
        help="append one JSON line per scrape for cross-run trend diffing",
    )
    obs_p.set_defaults(func=_cmd_obs)

    control_p = sub.add_parser(
        "control",
        help="failover demo: kill a collector mid-run, watch the fleet "
             "controller detect it and converge",
    )
    control_p.add_argument("--k", type=int, default=4, help="fat-tree k")
    control_p.add_argument("--flows", type=int, default=2000)
    control_p.add_argument("--slots", type=int, default=4096)
    control_p.add_argument("--redundancy", type=int, default=2)
    control_p.add_argument("--collectors", type=int, default=4)
    control_p.add_argument("--standbys", type=int, default=1)
    control_p.add_argument(
        "--victim", type=int, default=0,
        help="node ID of the collector to crash",
    )
    control_p.add_argument(
        "--fail-after", type=int, default=2,
        help="consecutive missed probes confirming death",
    )
    control_p.add_argument(
        "--tick-interval", type=int, default=50,
        help="packets between controller reconciliation ticks",
    )
    control_p.add_argument("--seed", type=int, default=0)
    control_p.set_defaults(func=_cmd_control)

    primitives_p = sub.add_parser(
        "primitives",
        help="demo the DTA primitive set (Append / Key-Increment / "
        "Sketch-Merge) and reconcile its counters",
    )
    primitives_p.add_argument(
        "--fabric",
        choices=("inline", "buffered", "impaired"),
        default="inline",
        help="transport flavour every primitive runs over",
    )
    primitives_p.add_argument(
        "--loss", type=float, default=0.1,
        help="request-leg loss rate for --fabric impaired",
    )
    primitives_p.add_argument(
        "--events", type=int, default=256, help="operations per primitive"
    )
    primitives_p.add_argument(
        "--writers", type=int, default=2, help="concurrent Append writers"
    )
    primitives_p.add_argument(
        "--capacity", type=int, default=64, help="Append ring slots"
    )
    primitives_p.add_argument(
        "--cells", type=int, default=1024, help="counter/sketch cells per row"
    )
    primitives_p.add_argument(
        "--rows", type=int, default=2, help="counter/sketch rows"
    )
    primitives_p.add_argument("--seed", type=int, default=0)
    primitives_p.set_defaults(func=_cmd_primitives)

    query_p = sub.add_parser(
        "query",
        help="run one declarative query against a populated demo fleet",
    )
    query_p.add_argument(
        "query",
        help='e.g. \'select sum(est) from counters where key contains "flow"\'',
    )
    query_p.add_argument(
        "--fabric",
        choices=("inline", "buffered", "impaired"),
        default="inline",
        help="transport flavour both fleet planes run over",
    )
    query_p.add_argument(
        "--loss", type=float, default=0.05,
        help="request-leg loss rate for --fabric impaired",
    )
    query_p.add_argument(
        "--keys", type=int, default=32, help="demo keys written before serving"
    )
    query_p.add_argument(
        "--standbys", type=int, default=0, help="warm standby collectors"
    )
    query_p.add_argument(
        "--explain", action="store_true",
        help="print the shard fan-out plan instead of executing",
    )
    query_p.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    query_p.add_argument("--seed", type=int, default=0)
    query_p.set_defaults(func=_cmd_query)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "obs" and args.mode == "trace" and args.node:
        # Spans carry no node; the registry's node label feeds the rest.
        parser.error("--node does not apply to obs trace")
    if args.command == "simulate":
        if args.load <= 0:
            parser.error(f"--load must be positive, got {args.load}")
        if args.cas and args.redundancy != 2:
            parser.error("--cas is defined for --redundancy 2")
    if args.command == "trace":
        if not 0.0 <= args.loss <= 1.0:
            parser.error(f"--loss must be in [0, 1], got {args.loss}")
        if args.flows < 1 or args.bytes_per_flow < 1:
            parser.error("--flows and --bytes-per-flow must be at least 1")
        if args.k < 2 or args.k % 2:
            parser.error(f"--k must be even and >= 2, got {args.k}")
        try:
            _trace_config(args)
        except ValueError as error:  # a budget under one slot, redundancy < 1
            parser.error(f"--flows x --bytes-per-flow, --redundancy: {error}")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
