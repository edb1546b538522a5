#!/usr/bin/env bash
# bench-gates: run the regression-gated benchmarks in one loop.
#
# Each gate is a usim_bench binary that measures itself against its checked-in
# baseline (crates/bench/baselines/<gate>.json) and exits non-zero on a
# regression.  The report is written to BENCH_<gate>.json in the repo root so
# CI can upload every artifact from a single glob.  Every listed gate runs even
# when an earlier one fails, so every report is written; the script then names
# the failed gates and exits non-zero if there were any.
#
# Usage:
#   scripts/bench_gates.sh                 # the default (bench-smoke) gate set
#   scripts/bench_gates.sh serve_throughput  # an explicit gate list
set -euo pipefail
cd "$(dirname "$0")/.."

DEFAULT_GATES=(batch_smoke update_churn cache_throughput cold_start alias_speedup obs_overhead)
GATES=("${@:-${DEFAULT_GATES[@]}}")

FAILED=()
for gate in "${GATES[@]}"; do
    # Gate names follow the baseline/report files; most binaries share the
    # gate's name, the original smoke gate predates that convention.
    case "$gate" in
        batch_smoke) bin=bench_smoke ;;
        alias_speedup) bin=csr_vs_alias ;;
        update_churn | cache_throughput | cold_start | serve_throughput | obs_overhead) bin=$gate ;;
        *) echo "bench-gates: unknown gate '$gate'" >&2; exit 2 ;;
    esac
    echo "=== gate: $gate (bin: $bin) ==="
    if ! USIM_BENCH_OUT="BENCH_${gate}.json" \
        cargo run --release -p usim_bench --bin "$bin"; then
        echo "=== gate: $gate FAILED ===" >&2
        FAILED+=("$gate")
    fi
done

if ((${#FAILED[@]})); then
    echo "bench-gates: ${#FAILED[@]} of ${#GATES[@]} gates failed: ${FAILED[*]}" >&2
    exit 1
fi
echo "bench-gates: all gates passed (${GATES[*]})"
