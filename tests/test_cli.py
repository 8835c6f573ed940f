"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestSimulate:
    def test_basic(self, capsys):
        assert main(["simulate", "--load", "0.5", "--slots", "16384"]) == 0
        out = capsys.readouterr().out
        assert "success_rate" in out
        assert "theory_success" in out

    def test_cas_strategy(self, capsys):
        assert main(["simulate", "--load", "0.5", "--slots", "8192", "--cas"]) == 0
        assert "write+cas" in capsys.readouterr().out

    def test_policy_choice(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--load",
                    "1.0",
                    "--slots",
                    "8192",
                    "--policy",
                    "consensus_2",
                ]
            )
            == 0
        )

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit) as error:
            main(["simulate", "--policy", "bogus"])
        assert error.value.code == 2

    @pytest.mark.parametrize(
        "bad", [["--cas", "--redundancy", "3"], ["--load", "0"], ["--load", "-1"]]
    )
    def test_bad_input_rejected(self, bad):
        with pytest.raises(SystemExit) as error:
            main(["simulate", *bad])
        assert error.value.code == 2


class TestPlan:
    def test_default(self, capsys):
        assert main(["plan"]) == 0
        out = capsys.readouterr().out
        assert "bytes_per_flow_needed" in out

    def test_with_flows_total(self, capsys):
        assert main(["plan", "--flows", "1000000", "--redundancy", "4"]) == 0
        assert "total_gb" in capsys.readouterr().out


class TestTheory:
    def test_table(self, capsys):
        assert main(["theory", "--loads", "0.1,1.0", "--redundancy", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "avg_n1" in out and "avg_n2" in out and "optimal_n" in out

    def test_values_sane(self, capsys):
        main(["theory", "--loads", "0.0", "--redundancy", "2"])
        assert "1" in capsys.readouterr().out  # perfect queryability at 0


class TestTrace:
    def test_small_run(self, capsys):
        assert (
            main(
                [
                    "trace",
                    "--k",
                    "4",
                    "--flows",
                    "200",
                    "--loss",
                    "0.1",
                    "--bytes-per-flow",
                    "600",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "success_rate" in out
        assert "fat_tree_k" in out

    @pytest.mark.parametrize(
        "bad",
        [
            ["--loss", "1.5"], ["--loss", "-0.1"], ["--flows", "0"],
            ["--bytes-per-flow", "0"], ["--k", "3"], ["--k", "0"],
            ["--bytes-per-flow", "1"], ["--redundancy", "0"],
        ],
    )
    def test_bad_input_rejected(self, bad, capsys):
        with pytest.raises(SystemExit) as error:
            main(["trace", "--k", "4", "--flows", "20", *bad])
        assert error.value.code == 2
        assert "error: --" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edge",
        [["--loss", "0"], ["--loss", "1"], ["--flows", "1"], ["--bytes-per-flow", "2"], ["--k", "2"]],
    )
    def test_edge_input_accepted(self, edge, capsys):
        """Each bound the usage errors draw is itself a valid run."""
        assert main(["trace", "--k", "4", "--flows", "20", *edge]) == 0
        assert "success_rate" in capsys.readouterr().out


class TestObs:
    SMALL = ["obs", "--keys", "200", "--slots", "1024", "--seed", "1"]

    def test_dashboard(self, capsys):
        assert main(self.SMALL) == 0
        out = capsys.readouterr().out
        assert "== pipeline health ==" in out
        assert "frame loss rate" in out
        assert "== per-stage latency (seconds) ==" in out
        assert "== query success rate ==" in out
        assert "policy=PLURALITY" in out
        assert "policy=FIRST_MATCH" in out
        assert "slot overwrite rate" in out
        assert "queue depth high-water mark" in out

    def test_prometheus_format(self, capsys):
        assert main(self.SMALL + ["--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_fabric_frames_offered counter" in out
        assert "repro_nic_frames_received_total" in out
        assert 'repro_stage_seconds_bucket{stage="fabric_flush",le="+Inf"}' in out

    def test_json_format(self, capsys):
        import json

        assert main(self.SMALL + ["--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        names = {row["name"] for row in rows}
        assert "fabric_frames_offered" in names
        assert "mem_slot_overwrites" in names
        assert "queries_total" in names

    def test_trace_output(self, capsys):
        assert main(self.SMALL + ["--trace", "2"]) == 0
        out = capsys.readouterr().out
        # put_many is a batch entry: one trace per batch, one span per layer.
        assert "== first 2 report-batch traces ==" in out
        assert out.count("kind=switch_batch") == 2
        assert "switch.report_batch" in out
        assert "nic.ingest (rows=" in out
        assert "fabric.deliver" in out

    def test_restores_process_defaults(self):
        from repro import obs

        registry_before = obs.get_registry()
        tracer_before = obs.get_tracer()
        assert main(self.SMALL) == 0
        assert obs.get_registry() is registry_before
        assert obs.get_tracer() is tracer_before
        assert registry_before.profiler is None

    def test_watch_mode_renders_per_tick_frames_with_sparklines(self, capsys):
        args = ["obs", "watch"] + self.SMALL[1:] + ["--rounds", "3"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out.count("== pipeline health ==") == 3
        assert "--- tick 1/3 ---" in out
        assert "--- tick 3/3 ---" in out
        assert "== trends (per-tick deltas) ==" in out
        assert "nic_frames_received" in out
        # The sparkline blocks only appear once a delta window exists.
        assert any(block in out for block in "▁▂▃▄▅▆▇█")

    def test_alerts_mode_runs_the_slo_engine(self, capsys):
        args = ["obs", "alerts"] + self.SMALL[1:]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "== alerts (" in out
        assert "frame-loss-rate" in out
        assert "conformance-PLURALITY" in out
        assert "fabric-nic-reconciliation" in out

    def test_alerts_fire_with_heavy_impairment(self, capsys):
        args = [
            "obs", "alerts",
            "--keys", "300", "--slots", "4096", "--seed", "5",
            "--loss", "0.5", "--duplication", "0", "--reordering", "0",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "[  firing] conformance-PLURALITY" in out
        assert "[  firing] frame-loss-rate" in out

    def test_profile_mode_writes_chrome_trace(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "pipeline.json"
        args = (
            ["obs", "profile"]
            + self.SMALL[1:]
            + ["--chrome-trace", str(trace_path)]
        )
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "== stage profile (wall-clock) ==" in out
        for stage in ("fabric.deliver", "nic.ingest",
                      "store.put_many", "client.query"):
            assert stage in out
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert "client.query" in names

    def test_node_filters_fleet_and_is_rejected_for_trace(self, capsys):
        """The registry's node label feeds ``--node``; spans carry none."""
        fleet = ["obs", "fleet"] + self.SMALL[1:] + ["--rounds", "2"]
        assert main(fleet + ["--node", "collector-0"]) == 0
        out = capsys.readouterr().out
        assert "== fleet (1 nodes," in out
        assert "collector-0" in out and "switch-0" not in out
        with pytest.raises(SystemExit) as rejected:
            main(["obs", "trace"] + self.SMALL[1:] + ["--node", "collector-0"])
        assert rejected.value.code == 2
        assert "--node does not apply to obs trace" in capsys.readouterr().err

    def test_persist_writes_scrape_lines(self, tmp_path, capsys):
        from repro.obs.timeseries import load_jsonl

        path = tmp_path / "run.jsonl"
        args = self.SMALL + ["--persist", str(path), "--rounds", "2"]
        assert main(args) == 0
        capsys.readouterr()
        rows = load_jsonl(str(path))
        assert [row["tick"] for row in rows] == [1, 2]
        assert any(s["name"] == "store_puts" for s in rows[-1]["samples"])


class TestParser:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in (
            "simulate",
            "plan",
            "theory",
            "trace",
            "experiments",
            "obs",
        ):
            args = parser.parse_args([command])
            assert callable(args.func)


class TestControl:
    def test_failover_demo(self, capsys):
        code = main(
            [
                "control",
                "--flows",
                "400",
                "--slots",
                "1024",
                "--collectors",
                "2",
                "--tick-interval",
                "25",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "crashed (silently)" in out
        assert "failed over" in out
        assert "success_rate" in out
        assert "theory_success" in out
        assert "== membership ==" in out
        assert "controller_failovers_total" in out

    def test_no_failover_is_an_error(self, capsys):
        # Interval longer than the run: the detector never gets to sweep
        # twice after the crash, so the command reports failure.
        code = main(
            [
                "control",
                "--flows",
                "60",
                "--slots",
                "1024",
                "--collectors",
                "2",
                "--tick-interval",
                "4000",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "no failover occurred" in out


class TestQueryCommand:
    def test_point_lookup_table(self, capsys):
        code = main(["query", 'select value from keys where key == "flow-3"'])
        out = capsys.readouterr().out
        assert code == 0
        assert "epoch:  0" in out
        assert "flow-3" in out
        assert "v3" in out

    def test_aggregate_prints_scalar(self, capsys):
        assert main(["query", "select sum(est) from counters"]) == 0
        out = capsys.readouterr().out
        assert "value:  528" in out  # sum of 1..32 over the demo fleet

    def test_topk_table_is_ordered(self, capsys):
        assert main(["query", "select est from sketch top 3 by est"]) == 0
        out = capsys.readouterr().out
        assert out.index("flow-31") < out.index("flow-30") < out.index("flow-29")

    def test_json_output(self, capsys):
        import json as json_module

        code = main(
            ["query", "--json", 'select value from keys where key contains "flow-1"']
        )
        payload = json_module.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["complete"] is True
        assert payload["shards_failed"] == 0
        keys = {row["key"] for row in payload["rows"]}
        assert "flow-1" in keys and "flow-12" in keys

    def test_explain_prints_plan_without_executing(self, capsys):
        code = main(
            ["query", "--explain", 'select value from keys where key == "flow-3"']
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "plan for:" in out
        assert "push-down: 31 candidate(s) pruned" in out
        assert "fan-out:   1 shard(s)" in out

    def test_runs_over_every_fabric(self, capsys):
        # Lossless fabrics serve the exact demo total; the impaired
        # fabric drops some *write* frames (reports are fire-and-forget
        # in DART), so its total is whatever actually landed -- the
        # query must still complete and report every shard.
        for fabric in ("inline", "buffered"):
            code = main(
                ["query", "--fabric", fabric, "select sum(est) from counters"]
            )
            assert code == 0
            assert "value:  528" in capsys.readouterr().out
        code = main(
            ["query", "--fabric", "impaired", "select sum(est) from counters"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "shards: 4 (0 failed)" in out
        value = int(out.split("value:")[1].strip())
        assert 0 < value <= 528

    def test_parse_error_surfaces(self, capsys, monkeypatch):
        """One ``error:`` line, exit code 2, and no fleet built to say it."""
        import repro.cli

        monkeypatch.setattr(
            repro.cli, "_query_demo_fleet", lambda args: pytest.fail("fleet built")
        )
        for text in (
            "select nope from nowhere",
            "select * from ring",
            "select value from keys where",
        ):
            assert main(["query", text]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_restores_process_registry(self):
        from repro import obs

        before = obs.get_registry()
        assert main(["query", "select count(*) from ring"]) == 0
        assert obs.get_registry() is before


class TestPrimitivesCommand:
    @pytest.mark.parametrize("fabric", ["inline", "impaired"])
    def test_demo_runs_and_reconciles(self, fabric, capsys):
        code = main(["primitives", "--fabric", fabric, "--events", "48"])
        out = capsys.readouterr().out
        assert code == 0
        for primitive in ("append", "key_increment", "sketch_merge"):
            assert primitive in out
        assert "== reconciliation ==" in out
        # Every atomic the NIC executed reached memory through it.
        assert "atomic bypass delta     0" in out
