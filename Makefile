# Convenience targets for the reproduction repo.
#
#   make lint          repro-lint static analysis, incremental (RPL rules;
#                      REPRO_LINT_NO_CACHE=1 forces a cold run)
#   make lint-full     repro-lint with the incremental cache disabled
#   make test          tier-1 test suite (default/batched engine)
#   make test-scalar   tier-1 suite forced onto the scalar reference engine
#   make differential  identity gates: scalar-vs-batched engine, TLB vs its
#                      reference, array-vs-loop mapping path, golden /map
#                      response bytes, golden spec artifacts
#   make bench-engine  engine speedup smoke benchmark
#   make spec-smoke    declarative-spec gate: cold run, warm run all-hits
#   make serve-smoke   boot `repro serve`, round-trip, SIGTERM drain
#   make cluster-smoke boot `repro route` (2 shards), kill one mid-load,
#                      require byte-identical settled responses + clean drain
#   make remap-smoke   online-remapping gate: pinned outcome, deterministic
#   make test-chaos    fault-injection chaos harness (fixed replay seeds)
#   make trace-smoke   `repro trace` twice per clock domain, byte-compare
#   make bench-check   fresh-cache bench run, every tracked artifact unchanged
#   make ci            every target above, in order
#   make bench         full figure/table benchmark harness
#
# Performance is measured by the repository benchmark: perfbench/run.py
# (see perfbench/README.md).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint lint-full test test-scalar differential bench-engine spec-smoke serve-smoke cluster-smoke remap-smoke test-chaos trace-smoke bench-check bench ci

# Incremental by default: warm re-runs only re-analyze changed files
# (cache: .repro-lint-cache/, safe to delete).  Honors REPRO_LINT_NO_CACHE=1.
lint:
	$(PYTHON) -m repro lint

lint-full:
	$(PYTHON) -m repro lint --no-cache

test:
	$(PYTHON) -m pytest tests -x -q

test-scalar:
	REPRO_SIM_ENGINE=scalar $(PYTHON) -m pytest tests -x -q

# Identity contracts: the batched engine against the scalar one (whole
# simulations, and access_batch per segment on a tiny machine), the TLB
# both engines share against its stamp-based reference in tests/reference,
# and the array code on the /map miss path (canonical form, merge-round H,
# blossom matcher, locality) against its loop references in
# tests/reference, plus the golden /map response bytes written by those
# loops, and every spec's rendered artifacts against the goldens written
# by the hand-rolled bench scripts the specs replaced.
differential:
	$(PYTHON) -m pytest tests/machine/test_engine_differential.py \
		tests/mem/test_segment_differential.py \
		tests/tlb/test_tlb_differential.py \
		tests/test_array_differential.py tests/service/test_map_golden.py \
		tests/experiments/test_spec_differential.py -q

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

# Online-remapping determinism + outcome gate: a small repartitioned
# splice whose static and adaptive cycles, migrations, threads moved and
# decision digest must equal the values pinned in the script, with the
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

# Artifact gate: the bench suite, run with a fresh result cache and the
# default REPRO_BENCH_* knobs, must rewrite every tracked file under
# benchmarks/out/ and BENCH_remap.json byte-identically (compared with
# their content before the run, so an uncommitted regeneration passes).
bench-check:
	$(PYTHON) benchmarks/artifact_check.py

bench:
	$(PYTHON) -m pytest benchmarks -q

ci: lint lint-full test test-scalar differential bench-engine spec-smoke serve-smoke cluster-smoke remap-smoke test-chaos trace-smoke bench-check
