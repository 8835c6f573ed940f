# Convenience targets for the DART reproduction.

PYTHON ?= python

.PHONY: install test perf-smoke exhibits audit bench bench-full bench-obs bench-obs-timeseries bench-obs-fleet bench-obs-trace bench-control bench-fabric-columnar bench-primitives bench-query experiments experiments-full examples lint loc loc-gate ci all

install:
	pip install -e . --no-build-isolation || \
	  echo "$(CURDIR)/src" > "$$($(PYTHON) -c 'import site; print(site.getsitepackages()[0])')/repro-editable.pth"
	$(PYTHON) -c "import repro; print('repro', repro.__version__, 'importable')"

test:
	$(PYTHON) -m pytest tests/ -q

lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
	  $(PYTHON) -m ruff check src/ tests/ benchmarks/ examples/; \
	else \
	  echo "ruff not installed; skipping lint (pip install -e '.[dev]')"; \
	fi

# The line counts ROADMAP.md and the CHANGES.md ledgers quote, the way
# they are counted there.
loc:
	@for tree in src src/repro/obs tests; do \
	  printf '%-14s %s\n' $$tree $$(find $$tree -name '*.py' | xargs cat | wc -l); \
	done

# ROADMAP's standing line rules, as a gate: src at most 23 980 lines and
# src/repro/obs under 5 000, counted as `make loc` counts them.
SRC_LINES_MAX = 23980
OBS_LINES_BELOW = 5000

loc-gate:
	@src=$$(find src -name '*.py' | xargs cat | wc -l); \
	obs=$$(find src/repro/obs -name '*.py' | xargs cat | wc -l); \
	echo "src $$src (gate <= $(SRC_LINES_MAX)), src/repro/obs $$obs (gate < $(OBS_LINES_BELOW))"; \
	test $$src -le $(SRC_LINES_MAX) && test $$obs -lt $(OBS_LINES_BELOW)

# Reachability audit (~30 min, not part of ci): which src/repro functions
# does no test module, experiment, benchmark, perf workload, example or
# README CLI line ever call?  Prints the per-file table; see
# tests/reachability_audit.py (its --options report, 1.5 s, lists the
# defaulted parameters no caller outside tests/ sets).
audit:
	$(PYTHON) tests/reachability_audit.py --without-tests

ci: lint loc-gate perf-smoke exhibits bench-obs bench-obs-timeseries bench-obs-fleet bench-obs-trace bench-control bench-fabric-columnar bench-primitives bench-query
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# The benchmark's own smoke test (~10 s): every frozen perf/trace.py
# BOUNDARIES name still resolves and records, and the oracle still agrees.
# Tier-1 (testpaths = tests) does not collect perf/, so ci runs it here.
perf-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest perf -q

# The paper's exhibits at quick scale (22 tests, about a minute, cut off at
# five): Figs 1a, 1b and 2-5, Table 1, the headline claim and the section 6
# prototype pipeline, each asserting its rows against the paper's values.
EXHIBITS = fig1a_io_cores fig1b_storage_cycles figure2_end_to_end fig3_redundancy \
	fig4_aging fig5_errors table1_backends headline_claim prototype_pipeline

exhibits:
	PYTHONPATH=src timeout 300 $(PYTHON) -m pytest -q --benchmark-disable \
	  $(EXHIBITS:%=benchmarks/bench_%.py)

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

# Observability overhead gate: fails if enabled-mode metrics cost more
# than 15% on the in-process put_many hot path (writes benchmarks/BENCH_obs.json).
bench-obs:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_obs_overhead.py -q

# Time-series scraper gate: fails if scraping at realistic cadence costs
# more than 10% on the batched report path (writes
# benchmarks/BENCH_obs_timeseries.json).
bench-obs-timeseries:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_obs_timeseries.py -q

# Self-telemetry gate: exporting our own counter deltas and journal
# events over the DTA datapath must cost at most 10% on the columnar
# report path (writes benchmarks/BENCH_obs_fleet.json).
bench-obs-fleet:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_obs_fleet.py -q

# Causal-tracing gate: a default Tracer at 1% head sampling must cost at
# most 10% on the columnar packet datapath (writes
# benchmarks/BENCH_obs_trace.json).
bench-obs-trace:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_obs_trace.py -q

# Fleet-controller gate: a collector crashed under an impaired fabric
# must fail over within bounded ticks and bounded reports lost (writes
# benchmarks/BENCH_control.json).
bench-control:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_control_failover.py -q

# Columnar datapath gate, absolute rates: every fabric-delivery mode
# (packet-level put_many and in-process put_many, and the scalar put paths
# they are diffed against) must read >= 90% of its recorded reports/sec,
# and per-frame packet put >= 2x what it read before its codecs went to C
# speed; the batched/scalar ratio is recorded, not gated (rewrites
# benchmarks/BENCH_fabric.json).
bench-fabric-columnar:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_fabric_columnar.py -q

# DTA primitive gate, absolute rates: the batched Append / Key-Increment /
# Sketch-Merge lowerings and the per-op Append / Key-Increment ones must
# each read >= 90% of their recorded ops/sec, and the per-op ones >= what
# they read before the scalar codecs went to C speed; the batched/per-op
# ratio is recorded, not gated (rewrites benchmarks/BENCH_primitives.json).
bench-primitives:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_primitives.py -q

# Query front-end gate: >= 10k concurrent closed-loop users sustained on
# the packet clock, the TTL result cache >= 5x faster than the uncached
# shard fan-out at p99, and over-quota tenants rejected without touching
# in-quota latency (writes benchmarks/BENCH_query.json).
bench-query:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_query.py -q

bench-full:
	REPRO_BENCH_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only -q

experiments:
	$(PYTHON) -m repro.experiments

experiments-full:
	$(PYTHON) -m repro.experiments --full

examples:
	@for script in examples/*.py; do \
	  echo "=== $$script ==="; \
	  $(PYTHON) $$script || exit 1; \
	done

all: test bench examples
