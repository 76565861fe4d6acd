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
# number ${BENCH_PR:-36} (the current perf-trajectory point).
# The JSON context records the git sha (suffixed -dirty for an
# uncommitted tree), the compiler, the CMake build type and nproc.
# Every benchmark runs 5 repetitions and only the aggregates (mean,
# median, stddev, cv) are written; tools/diff_bench.py compares medians.
# Pass BENCH_FILTER to restrict which benchmarks run, e.g.
#   BENCH_FILTER='bm_explore_prunable|bm_eval' tools/run_bench.sh
#
# The benchmarks run in two passes merged into the one JSON. The
# single-thread slot, setup, explore, producer and trial benches
# (bm_search_acceptance_slot, bm_eval_rebind, bm_initial_sea_mapping/1000,
# bm_explore_scale_tgff/1, bm_producer_acceptance, bm_campaign_trial, bm_rng_fork_draws,
# bm_rng_fork_block, bm_fault_injection_trial; the PINNED regex below)
# run in the second pass, pinned to CPU 0 with `taskset -c 0` when
# taskset exists and with --benchmark_min_time=1:
# unpinned at the default minimum time their CV reaches 20%, too wide
# to resolve a 15-20% change. The JSON context's `pinned` field names
# what that pass ran and how.
set -euo pipefail

BUILD_DIR="${1:-build}"
BENCH_PR="${BENCH_PR:-36}"
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
PINNED='^bm_(search_acceptance_slot|eval_rebind|initial_sea_mapping/1000|explore_scale_tgff/1|producer_acceptance|campaign_trial|rng_fork_draws|rng_fork_block|fault_injection_trial)(/|$)'
PIN=()
if command -v taskset > /dev/null; then
    PIN=(taskset -c 0)
fi

# Split the selected benchmarks into the two passes by exact name
# (names hold only [A-Za-z0-9_/], so they need no escaping).
LIST_ARGS=(--benchmark_list_tests)
if [[ -n "${FILTER}" ]]; then
    LIST_ARGS+=(--benchmark_filter="${FILTER}")
fi
SELECTED="$("${BENCH}" "${LIST_ARGS[@]}")"
exact_names() {
    paste -sd '|' | sed 's/^\(..*\)$/^(\1)$/'
}
FREE_NAMES="$(grep -Ev "${PINNED}" <<< "${SELECTED}" | exact_names || true)"
PINNED_NAMES="$(grep -E "${PINNED}" <<< "${SELECTED}" | exact_names || true)"

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "${TMP_DIR}"' EXIT
ARGS=(--benchmark_out_format=json --benchmark_context="${CONTEXT}"
      --benchmark_repetitions=5 --benchmark_report_aggregates_only=true)
PASSES=()
if [[ -n "${FREE_NAMES}" ]]; then
    "${BENCH}" "${ARGS[@]}" --benchmark_filter="${FREE_NAMES}" \
        --benchmark_out="${TMP_DIR}/free.json"
    PASSES+=("${TMP_DIR}/free.json")
fi
if [[ -n "${PINNED_NAMES}" ]]; then
    "${PIN[@]}" "${BENCH}" "${ARGS[@]}" --benchmark_filter="${PINNED_NAMES}" \
        --benchmark_min_time=1 --benchmark_out="${TMP_DIR}/pinned.json"
    PASSES+=("${TMP_DIR}/pinned.json")
fi
if [[ ${#PASSES[@]} -eq 0 ]]; then
    echo "error: no benchmark matches '${FILTER}'" >&2
    exit 1
fi

# One JSON: the first pass's context plus `pinned`, every pass's runs.
PINNED_HOW="${PIN[*]:-unpinned} --benchmark_min_time=1: ${PINNED}"
python3 - "${OUT}" "${PINNED_HOW}" "${PASSES[@]}" << 'PY'
import json
import sys

out, pinned, passes = sys.argv[1], sys.argv[2], sys.argv[3:]
docs = [json.load(open(path)) for path in passes]
merged = docs[0]
merged["context"]["pinned"] = pinned
merged["benchmarks"] = [bench for doc in docs for bench in doc["benchmarks"]]
with open(out, "w") as handle:
    json.dump(merged, handle, indent=2)
PY
echo "wrote ${OUT}"
