#!/usr/bin/env bash
# Quick bench configuration shared by baseline capture and the CI perf
# gate. Source this before scripts/run_benches.sh so the committed
# baselines in bench/baselines/ and the CI runs measure the SAME workload
# — the regression gate (scripts/bench_compare.py) only compares runs
# whose meta agrees on these knobs.
#
#   source scripts/bench_quick_env.sh
#   scripts/run_benches.sh build build/bench_results
#
# The values trade statistical weight for wall time: large enough that the
# deterministic metrics (bytes, counts) are exact and the ratio metrics
# (overhead %, speedups) are in their steady regime, small enough that the
# full sweep stays under ~2 minutes on 2 cores.

export ALBIC_BENCH_TUPLES=400000        # floors: latency 100k, recovery 260k
export ALBIC_BENCH_REPS=3
export ALBIC_BENCH_ARTICLES=20000
export ALBIC_BENCH_SLICES=8             # bench_latency timeline slices
export ALBIC_BENCH_LARGE_KEYS=100000    # bench_recovery large-state scenario
export ALBIC_BENCH_LARGE_ROUNDS=6
export ALBIC_BENCH_PERIODS=16           # bench_fig5 scaling periods (the
                                        # bench default; scale-in needs 10-12)
