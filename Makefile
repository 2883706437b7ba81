# Developer entry points.  Everything runs from the repo root with the
# in-tree sources on PYTHONPATH (no install required).

PY ?= python
export PYTHONPATH := src

.PHONY: test check typecheck bench bench-smoke

test:
	$(PY) -m pytest -x -q

# Static contract analysis (repro check): determinism, wire-safety,
# telemetry discipline, N+1 lint, exception hygiene and canonical dtypes
# over src/repro/, gated against the committed (empty) baseline.  Exits
# non-zero on any new finding; dependency-free, so it runs anywhere the
# tests do.
check:
	$(PY) -m repro.cli check --baseline check_baseline.json

# Strict mypy over repro.obs, repro.distributed and repro.trust.backend
# (config in pyproject.toml).  Needs mypy: pip install -e .[dev] first.
# CI runs this on the newest Python only.
typecheck:
	$(PY) -m mypy --config-file pyproject.toml

# Full benchmark/experiment suite: regenerates every table and figure under
# benchmarks/results/.
bench:
	$(PY) -m pytest benchmarks -q

# Cheap guard that every benchmark still runs: tiny parameters via
# REPRO_BENCH_SMOKE, one pass, fail fast.  Keeps benchmarks from silently
# rotting without paying the full measurement cost.  This includes the
# enforced acceptance bars: backend batching speedups, the exchange-core
# state-profile speedup (bench_exchange_core: >= 2x over the ExchangeState
# replay, identical results), sharding overhead
# (bench_sharded_backend), live-rebalance balance and split-pause bars
# (bench_shard_rebalance: max shard share <= 2/N after auto splits at
# < 10% pause cost), the evidence-repair convergence/overhead bars
# (bench_evidence_repair: gossip >= 0.99 effective delivery at < 3x
# message overhead under 20% loss) and the worker-distribution bars
# (bench_worker_distribution: score bit-identity and the kill-and-recover
# drill healing to effective_delivery_ratio 1.0; the >= 1.5x speedup bar
# at 4 workers is enforced on >= 4-core machines in the full pass).  The
# worker bench carries its own SIGALRM watchdog so a deadlocked worker
# pool fails fast instead of hanging the run.
bench-smoke:
	REPRO_BENCH_SMOKE=1 $(PY) -m pytest benchmarks -x -q
