"""Smoke tests of the benchmark itself (``python -m pytest perf -q``).

Everything runs at ``--smoke`` scale (an eighth of every size, two
rounds), so these check the harness's bookkeeping, not performance.
"""

import importlib
import json
import re
from pathlib import Path

import pytest

from perf import compare
from perf.run import BENCHMARK, contract_line, run_workload
from perf.trace import BOUNDARIES, SpanTracer
from perf.workloads import WORKLOADS, Driver, make_keys, smoke_spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def results():
    """One smoke result per (workload, pass), computed once."""
    return {
        (name, trace): run_workload(name, 1, 1.0, trace, smoke=True)
        for name in WORKLOADS
        for trace in (False, True)
    }


def test_benchmark_json_matches_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert "setup_s" in [m["name"] for m in BENCHMARK["end_to_end"]]
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_every_metric_is_reported_and_runs_are_correct(results):
    for (name, trace), result in results.items():
        declared = BENCHMARK["per_layer" if trace else "end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in declared]
        assert result["correct"], result["violations"]
        assert result["failed"] == 0 and result["attempted"] > 0
        assert result["outcomes"]["wrong"] == 0
        for metric in result["metrics"].values():
            assert metric["unit"] and isinstance(metric["value"], (int, float))
        if not trace:
            assert all(m["value"] > 0 and m["n"] >= 1 for m in result["metrics"].values())
            line = json.loads(contract_line(result))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_same_seed_repeats_counts_exactly(results):
    first = results[("serve_mixed_lossy", True)]
    again = run_workload("serve_mixed_lossy", 1, 1.0, True, smoke=True)
    other = run_workload("serve_mixed_lossy", 2, 1.0, True, smoke=True)

    def counts(result):
        return {
            name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count"
        }

    assert counts(first) == counts(again)
    assert counts(first) != counts(other)
    assert first["metrics"]["fabric.frames_dropped_loss"]["value"] > 0


def test_a_different_seed_gives_different_inputs():
    spec = smoke_spec(WORKLOADS["query_uncached"])
    assert make_keys(spec, 1) == make_keys(spec, 1)
    assert make_keys(spec, 1) != make_keys(spec, 2)


def test_spans_nest_and_self_times_sum_to_each_root():
    originals = {}
    for _layer, module, cls_name, method, _size in BOUNDARIES:
        cls = getattr(importlib.import_module(module), cls_name)
        owner = next(k for k in cls.__mro__ if method in k.__dict__)
        originals[(owner, method)] = owner.__dict__[method]

    tracer = SpanTracer()
    driver = Driver(smoke_spec(WORKLOADS["serve_mixed_lossy"]), 1)
    driver.setup()
    try:
        driver.tracer = tracer
        with tracer:
            assert tracer.patched
            driver.run(0, 2)
            driver.verify()
    finally:
        driver.teardown()

    # Every wrapped attribute is the original object again.
    for (owner, method), original in originals.items():
        assert owner.__dict__[method] is original

    covered = tracer.child_ns()
    subtree_self = [0] * len(tracer.parent)
    for index in reversed(range(len(tracer.parent))):
        duration = tracer.end[index] - tracer.start[index]
        subtree_self[index] += duration - covered[index]
        parent = tracer.parent[index]
        if parent >= 0:
            assert tracer.start[parent] <= tracer.start[index]
            assert tracer.end[index] <= tracer.end[parent]
            assert tracer.op[index] == tracer.op[parent]
            subtree_self[parent] += subtree_self[index]
    roots = [
        i for i, parent in enumerate(tracer.parent)
        if parent < 0 and tracer.names[tracer.name_id[i]].startswith("bench.")
    ]
    assert roots
    for root in roots:
        assert subtree_self[root] == tracer.end[root] - tracer.start[root]
    layers = {tracer.names[n].split(".")[0] for n in tracer.name_id}
    assert {"core", "switch", "fabric", "rdma", "mem", "query"} <= layers


def test_compare_agrees_with_itself_and_flags_a_regression(tmp_path: Path, results):
    def dump(path, scale):
        rows = []
        for (name, trace), result in results.items():
            row = json.loads(json.dumps(result))
            if not trace:
                row["metrics"]["point_p50_us"]["value"] *= scale
            rows.append(row)
        path.write_text(json.dumps({"results": rows}))
        return str(path)

    base = [dump(tmp_path / f"a{i}.json", 1.0) for i in range(3)]
    slow = [dump(tmp_path / f"b{i}.json", 1.5) for i in range(3)]
    assert compare.compare([("a", base), ("b", base)], agree=True) == 0
    assert compare.compare([("a", base), ("b", slow)]) == 1
