#!/usr/bin/env bash
# Run the bench_micro Google Benchmark harness and emit a JSON baseline
# for the perf trajectory (committed at the repo root / uploaded as a
# CI artifact from PR 3 onward).
#
#   tools/run_bench.sh [build-dir] [output.json | PR-number]
#
# The second argument is either an output path (anything containing a
# '/' or ending in .json) or a bare PR number N, which resolves to
# <build-dir>/BENCH_N.json. Defaults: build directory `build`, PR
# number ${BENCH_PR:-24} (the current perf-trajectory point).
# The JSON context records the git sha (suffixed -dirty for an
# uncommitted tree), the compiler, the CMake build type and nproc.
# Every benchmark runs 5 repetitions and only the aggregates (mean,
# median, stddev, cv) are written; tools/diff_bench.py compares medians.
# Pass BENCH_FILTER to restrict which benchmarks run, e.g.
#   BENCH_FILTER='bm_explore_prunable|bm_eval' tools/run_bench.sh
set -euo pipefail

BUILD_DIR="${1:-build}"
BENCH_PR="${BENCH_PR:-24}"
SPEC="${2:-${BENCH_PR}}"
if [[ "${SPEC}" == */* || "${SPEC}" == *.json ]]; then
    OUT="${SPEC}"
else
    OUT="${BUILD_DIR}/BENCH_${SPEC}.json"
fi
FILTER="${BENCH_FILTER:-}"

if [[ ! -d "${BUILD_DIR}" ]]; then
    echo "error: build directory '${BUILD_DIR}' not found (run cmake -B ${BUILD_DIR} -S . first)" >&2
    exit 1
fi
if ! cmake --build "${BUILD_DIR}" --target bench_micro -j; then
    echo "error: bench_micro did not build — is Google Benchmark (libbenchmark-dev) installed?" >&2
    exit 1
fi

# Machine and build context, stamped into the JSON. Google Benchmark
# splits --benchmark_context on commas, so none may appear in a value.
cache_value() {
    sed -n "s/^$1:[A-Z]*=//p" "${BUILD_DIR}/CMakeCache.txt"
}
SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"
GIT_SHA="$(git -C "${SRC_DIR}" rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [[ "${GIT_SHA}" != unknown ]] && ! git -C "${SRC_DIR}" diff --quiet HEAD 2>/dev/null; then
    GIT_SHA="${GIT_SHA}-dirty"
fi
COMPILER="$("$(cache_value CMAKE_CXX_COMPILER)" --version 2>/dev/null | head -n 1 | tr ',' ' ' || true)"
CONTEXT="git_sha=${GIT_SHA},compiler=${COMPILER:-unknown}"
CONTEXT+=",build_type=$(cache_value CMAKE_BUILD_TYPE),nproc=$(nproc)"

BENCH="${BUILD_DIR}/bench/bench_micro"
ARGS=(--benchmark_out="${OUT}" --benchmark_out_format=json
      --benchmark_context="${CONTEXT}"
      --benchmark_repetitions=5 --benchmark_report_aggregates_only=true)
if [[ -n "${FILTER}" ]]; then
    ARGS+=(--benchmark_filter="${FILTER}")
fi
"${BENCH}" "${ARGS[@]}"
echo "wrote ${OUT}"
