# Convenience targets for the reproduction repo.
#
#   make lint          repro-lint static analysis, incremental (RPL rules;
#                      REPRO_LINT_NO_CACHE=1 forces a cold run)
#   make lint-full     repro-lint with the incremental cache disabled
#   make mypy          strict typing gate (skipped gracefully if mypy absent)
#   make test          tier-1 test suite (default/batched engine)
#   make test-scalar   tier-1 suite forced onto the scalar reference engine
#   make differential  identity gates: scalar-vs-batched engine, array-vs-loop
#                      mapping path, golden /map response bytes
#   make bench-engine  engine speedup smoke benchmark
#   make spec-smoke    declarative-spec gate: cold run, warm run all-hits
#   make serve-smoke   boot `repro serve`, round-trip, SIGTERM drain
#   make cluster-smoke boot `repro route` (2 shards), kill one mid-load,
#                      require byte-identical settled responses + clean drain
#   make bench-service mapping-service load bench (writes BENCH_service.json)
#   make bench-cluster sharded-cluster load bench (writes BENCH_cluster.json)
#   make remap-smoke   online-remapping gate: adaptive beats static, deterministic
#   make test-chaos    fault-injection chaos harness (fixed replay seeds)
#   make trace-smoke   `repro trace` twice per clock domain, byte-compare
#   make perf-gate     regression-ledger gate: BENCH_*.json vs BENCH_HISTORY.jsonl
#   make cov           coverage gate over service+faults (skipped if no pytest-cov)
#   make ci            lint -> mypy -> everything above, in order
#   make bench         full figure/table benchmark harness

PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint lint-full mypy test test-scalar differential bench-engine spec-smoke serve-smoke cluster-smoke bench-service bench-cluster remap-smoke test-chaos trace-smoke perf-gate cov bench ci

# Incremental by default: warm re-runs only re-analyze changed files
# (cache: .repro-lint-cache/, safe to delete).  Honors REPRO_LINT_NO_CACHE=1.
lint:
	$(PYTHON) -m repro lint

lint-full:
	$(PYTHON) -m repro lint --no-cache

# mypy is configured in pyproject.toml ([tool.mypy], tiered strictness) but
# is not vendored in this environment; the target degrades to a no-op with a
# notice rather than failing ci on a missing tool.
mypy:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy src/repro; \
	else \
		echo "mypy not installed; skipping typing gate (config: pyproject.toml [tool.mypy])"; \
	fi

test:
	$(PYTHON) -m pytest tests -x -q

test-scalar:
	REPRO_SIM_ENGINE=scalar $(PYTHON) -m pytest tests -x -q

# Identity contracts: the batched engine against the scalar one, and the
# array code on the /map miss path (canonical form, merge-round H, blossom
# matcher, locality) against its loop references in tests/reference, plus
# the golden /map response bytes written by those loops.
differential:
	$(PYTHON) -m pytest tests/machine/test_engine_differential.py \
		tests/test_array_differential.py tests/service/test_map_golden.py -q

bench-engine:
	$(PYTHON) -m pytest benchmarks/bench_engine_speedup.py -q

serve-smoke:
	$(PYTHON) -m repro.service.smoke

# Declarative-spec gate: run the sampling-ablation spec cold then warm
# into a fresh cache; the warm pass must be all cache hits with
# byte-identical artifacts (spec loading, grid runner, memoization).
spec-smoke:
	$(PYTHON) -m repro.experiments.spec_smoke

# Chaos gate for the sharded cluster: a 2-shard router boots, a fault
# plan kills the forward target mid-sequence, and the settled response
# must be byte-identical to the pre-kill one (replication keeps the
# sibling warm); the dead shard restarts with the replica store replayed.
cluster-smoke:
	$(PYTHON) -m repro.cluster.smoke

bench-service:
	$(PYTHON) benchmarks/bench_service_throughput.py

bench-cluster:
	$(PYTHON) benchmarks/bench_cluster_throughput.py

# Online-remapping determinism + win gate: a small repartitioned splice
# where the live controller must beat the static mapping, with the
# decision log byte-identical across two runs.
remap-smoke:
	$(PYTHON) benchmarks/remap_smoke.py

# The chaos harness replays its fixed seeds (tests/faults/test_chaos_service.py
# CHAOS_SEEDS) plus the hand-written fault scenarios against the live stack.
test-chaos:
	$(PYTHON) -m pytest tests/faults -q

# Determinism gate for the tracing layer: the same `repro trace` command
# must produce byte-identical Chrome-trace JSON on consecutive runs, in
# both clock domains (cycle-timed simulation, wall-timed service request).
trace-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(PYTHON) -m repro trace cg --scale 0.2 --output "$$tmp/sim-1.json" && \
	$(PYTHON) -m repro trace cg --scale 0.2 --output "$$tmp/sim-2.json" && \
	cmp "$$tmp/sim-1.json" "$$tmp/sim-2.json" && \
	$(PYTHON) -m repro trace serve-request --output "$$tmp/svc-1.json" && \
	$(PYTHON) -m repro trace serve-request --output "$$tmp/svc-2.json" && \
	cmp "$$tmp/svc-1.json" "$$tmp/svc-2.json" && \
	echo "trace-smoke: both clock domains byte-identical"

# Performance-regression gate: compare the checked-in BENCH_*.json docs
# against the recent same-kind window of the append-only ledger
# (BENCH_HISTORY.jsonl).  Bench writers append on every run, so the
# ledger accumulates a same-host baseline; the gate fails only on
# beyond-band regressions, never on improvements.
perf-gate:
	$(PYTHON) -m repro obs regress --history BENCH_HISTORY.jsonl \
		--candidate BENCH_service.json \
		--candidate BENCH_cluster.json \
		--candidate BENCH_remap.json

# Coverage floor over the resilience-critical packages.  pytest-cov is not
# vendored in this environment; the target degrades to a notice (same
# pattern as the mypy gate) rather than failing ci on a missing tool.
cov:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		$(PYTHON) -m pytest tests/service tests/faults -q \
			--cov=repro.service --cov=repro.faults \
			--cov-report=term-missing --cov-fail-under=85; \
	else \
		echo "pytest-cov not installed; skipping coverage gate (floor: 85% over repro.service + repro.faults)"; \
	fi

bench:
	$(PYTHON) -m pytest benchmarks -q

ci: lint lint-full mypy test test-scalar differential bench-engine spec-smoke serve-smoke cluster-smoke remap-smoke test-chaos trace-smoke perf-gate cov
