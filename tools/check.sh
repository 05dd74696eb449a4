#!/usr/bin/env bash
# tools/check.sh — the pre-merge gate: lint + analyze + every build/test lane.
#
# Lanes (all builds with -DC2LSH_WERROR=ON, so warnings — including discarded
# [[nodiscard]] Status/Result — are hard failures):
#
#   lint      tools/lint.py over src/ tests/ tools/ bench/
#   default   plain build, full ctest (includes the analyzer/lint self-test
#             suites, registered under the `analysis` label)
#   analyze   tools/analyze over src/ using the default lane's
#             compile_commands.json (fails with a pointer at CMake's
#             CMAKE_EXPORT_COMPILE_COMMANDS if the database is missing)
#   metrics   ctest -L metrics in the default tree, then metrics_dump in all
#             three exporter formats (the prometheus run self-validates
#             against the text-exposition grammar)
#   deadline  ctest -L deadline in the default tree — deadline, cancellation
#             and admission-control behavior (the same tests also run under
#             TSan via the race label)
#   mutate    ctest -L mutate in the default tree — WAL durability, crash
#             replay, and mutate/build equivalence (the concurrent-mutation
#             tests also run under TSan via the race label)
#   batch     ctest -L batch under -DC2LSH_SANITIZE=thread in both ISA
#             dispatch modes (shares the tsan tree) — QueryBatch's
#             query-parallel lanes, their bitwise-determinism against the
#             serial loop, concurrent callers on one pool, and the
#             thread-pool suite; the same tests also run unsanitized in
#             the default lane
#   trace     ctest -L trace under -DC2LSH_SANITIZE=thread in both ISA
#             dispatch modes (shares the tsan tree) — the span-tracing ring
#             buffers and flight recorder under concurrent churn; the same
#             tests also run unsanitized in the default lane
#   serve     ctest -L serve under -DC2LSH_SANITIZE=thread in both ISA
#             dispatch modes (shares the tsan tree) — the TCP front end:
#             protocol codecs, admission/drain races, end-to-end server
#             tests — then the chaos_soak binary in short mode (fault
#             bursts + overload + drain/restart + crash-restart, invariant
#             ledger checked); the same tests also run unsanitized in the
#             default lane
#   scalar    -DC2LSH_DISABLE_SIMD=ON build (only the scalar kernel TU is
#             compiled), full ctest — keeps the portable fallback tested
#   asan      -DC2LSH_SANITIZE=address,   full ctest, rerun w/ C2LSH_SIMD=scalar
#   ubsan     -DC2LSH_SANITIZE=undefined, full ctest, rerun w/ C2LSH_SIMD=scalar
#   tsan      -DC2LSH_SANITIZE=thread,    ctest -L race (concurrent stress
#             suite; any TSan report fails the test)
#   fuzz      -DC2LSH_FUZZ=ON -DC2LSH_SANITIZE=address,undefined: builds the
#             fuzz/ harnesses, regenerates the seed corpora with make_seeds,
#             and soaks each harness for FUZZ_SECONDS (default 60) of
#             deterministic seeded mutation — any abort or sanitizer report
#             fails the lane
#   clang     clang++ build with -Wthread-safety (annotation check) — SKIP
#             when clang++ is not installed
#   tidy      clang-tidy (>= TIDY_MIN_VERSION) over src/ with the checked-in
#             .clang-tidy — SKIP when clang-tidy is missing or too old; a
#             finding from an installed, current clang-tidy FAILS the lane
#   perf      opt-in (--perf): the repository benchmark, perfbench/run.py
#             --seconds 10: wire_cold_rw once with --trace 0 and once with
#             --trace 1, then embed_batch with --trace 0, whose bitwise
#             QueryBatch == Searcher::Query gate turns a batch/serial
#             mismatch red (benchmark build in build-check/perfbench
#             unless CARGO_TARGET_DIR is set). Any non-zero exit fails the
#             lane; run.py's stderr is echoed after each run with a verdict:
#             a correctness VIOLATION, an invalid run (load generator late),
#             or a crash/build failure. The traced wire run also fails the lane
#             when storage.pool_misses_per_query reaches file_pages: a disk
#             query reads each entry page at most once, so more misses than
#             the file has pages means rounds are re-reading pages again
#
# The sanitizer lanes run their ctest suite twice: once on the CPU's best
# SIMD dispatch target and once with the C2LSH_SIMD=scalar runtime override,
# so both sides of the kernel dispatch stay sanitizer-clean without an extra
# build tree.
#
# Every lane's verdict (PASS/FAIL/SKIP + duration) is collected into a
# summary table; the script exits with the FIRST failing lane's exit code,
# so CI surfaces the root cause, not whatever ran last.  Build trees live
# under build-check/ so they never collide with a developer's ./build.
#
# Usage: tools/check.sh [--fast] [--perf]
#   --fast: lint + default + analyze + the default-tree ctest sublanes;
#           skips the scalar, sanitizer, fuzz, clang and tidy lanes.
#   --perf: also runs the perf lane (about 4 minutes on 4 cores, most of it
#           the first benchmark build).

set -u
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
FAST=0
PERF=0
for arg in "$@"; do
  case "${arg}" in
    --fast) FAST=1 ;;
    --perf) PERF=1 ;;
    *) echo "usage: tools/check.sh [--fast] [--perf]" >&2; exit 2 ;;
  esac
done
FUZZ_SECONDS="${FUZZ_SECONDS:-60}"
TIDY_MIN_VERSION=14

# --- lane bookkeeping -------------------------------------------------------
lane_names=()
lane_status=()   # PASS / FAIL / SKIP
lane_secs=()
lane_notes=()
first_fail_code=0
first_fail_name=""

note() { printf '\n==== %s ====\n' "$*"; }

record_lane() {  # record_lane <name> <status> <secs> <code> [note]
  lane_names+=("$1"); lane_status+=("$2"); lane_secs+=("$3")
  lane_notes+=("${5:-}")
  if [[ "$2" == "FAIL" && "${first_fail_code}" -eq 0 ]]; then
    first_fail_code="$4"
    first_fail_name="$1"
  fi
}

run_lane() {  # run_lane <name> <command...>
  local name="$1"; shift
  note "lane: ${name}"
  local t0=${SECONDS}
  "$@"
  local code=$?
  local dt=$((SECONDS - t0))
  if [[ ${code} -eq 0 ]]; then
    echo "lane ${name}: OK (${dt}s)"
    record_lane "${name}" PASS "${dt}" 0
  else
    echo "lane ${name}: FAILED (exit ${code}, ${dt}s)"
    record_lane "${name}" FAIL "${dt}" "${code}"
  fi
}

skip_lane() {  # skip_lane <name> <reason>
  note "lane: $1 (skipped — $2)"
  record_lane "$1" SKIP 0 0 "$2"
}

build_and_test() {  # build_and_test <dir> <ctest-args...> -- <cmake-args...>
  local dir="$1"; shift
  local ctest_args=()
  while [[ $# -gt 0 && "$1" != "--" ]]; do ctest_args+=("$1"); shift; done
  [[ "${1:-}" == "--" ]] && shift
  cmake -B "${dir}" -S . -DC2LSH_WERROR=ON "$@" >/dev/null || return 1
  cmake --build "${dir}" -j "${JOBS}" || return 1
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" "${ctest_args[@]}"
}

# Like build_and_test, but runs the ctest suite a second time with the SIMD
# dispatch forced to the scalar kernels (runtime override — no rebuild).
build_and_test_both_isas() {
  build_and_test "$@" || return 1
  local dir="$1"; shift
  local ctest_args=()
  while [[ $# -gt 0 && "$1" != "--" ]]; do ctest_args+=("$1"); shift; done
  note "  (rerun with C2LSH_SIMD=scalar)"
  C2LSH_SIMD=scalar ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
    "${ctest_args[@]}"
}

# --- lint ------------------------------------------------------------------
run_lane lint python3 tools/lint.py

# --- default ---------------------------------------------------------------
run_lane default build_and_test build-check/default --

# --- analyze (invariant analyzer over src/) --------------------------------
analyze_lane() {
  if [[ ! -f build-check/default/compile_commands.json ]]; then
    echo "analyze: build-check/default/compile_commands.json is missing." >&2
    echo "  The default lane's configure step exports it automatically" >&2
    echo "  (CMAKE_EXPORT_COMPILE_COMMANDS is ON in CMakeLists.txt);" >&2
    echo "  run the default lane first, or configure any tree and pass" >&2
    echo "  it with: python3 tools/analyze -p <build-dir>" >&2
    return 2
  fi
  python3 tools/analyze -p build-check/default
}
run_lane analyze analyze_lane

# --- metrics (observability suite + exporter round-trip) -------------------
metrics_lane() {  # reuses the default lane's tree
  ctest --test-dir build-check/default --output-on-failure -j "${JOBS}" \
    -L metrics || return 1
  local dump=build-check/default/tools/metrics_dump
  [[ -x "${dump}" ]] || { echo "metrics_dump not built"; return 1; }
  local fmt
  for fmt in table json prometheus; do
    "${dump}" --format="${fmt}" --n=500 --queries=2 \
      --scratch=build-check/default/metrics_dump.pages >/dev/null || return 1
  done
}
run_lane metrics metrics_lane

# --- deadline (cooperative-stop + overload-protection suite) ---------------
deadline_lane() {  # reuses the default lane's tree
  ctest --test-dir build-check/default --output-on-failure -j "${JOBS}" \
    -L deadline
}
run_lane deadline deadline_lane

# --- mutate (online mutability: WAL, replay recovery, equivalence) ---------
mutate_lane() {  # reuses the default lane's tree
  ctest --test-dir build-check/default --output-on-failure -j "${JOBS}" \
    -L mutate
}
run_lane mutate mutate_lane

if [[ "${FAST}" -eq 0 ]]; then
  # --- forced-scalar build (no SIMD translation units at all) --------------
  run_lane scalar build_and_test build-check/scalar -- -DC2LSH_DISABLE_SIMD=ON

  # --- sanitizers ----------------------------------------------------------
  run_lane asan build_and_test_both_isas build-check/asan -- -DC2LSH_SANITIZE=address
  run_lane ubsan build_and_test_both_isas build-check/ubsan -- -DC2LSH_SANITIZE=undefined
  run_lane tsan build_and_test_both_isas build-check/tsan -L race -- -DC2LSH_SANITIZE=thread

  # --- batch (QueryBatch determinism + pool under TSan, both ISA modes) ----
  run_lane batch build_and_test_both_isas build-check/tsan -L batch -- -DC2LSH_SANITIZE=thread

  # --- trace (span rings + flight recorder under TSan, both ISA modes) -----
  run_lane trace build_and_test_both_isas build-check/tsan -L trace -- -DC2LSH_SANITIZE=thread

  # --- serve (TCP front end + chaos soak under TSan, both ISA modes) -------
  serve_lane() {
    build_and_test_both_isas build-check/tsan -L serve \
      -- -DC2LSH_SANITIZE=thread || return 1
    local soak=build-check/tsan/tools/chaos_soak
    [[ -x "${soak}" ]] || { echo "chaos_soak not built"; return 1; }
    note "  (chaos_soak, short mode)"
    rm -rf build-check/tsan/chaos_soak.scratch
    "${soak}" --seed=20120612 --ops=32 --clients=3 \
      --scratch=build-check/tsan/chaos_soak.scratch
  }
  run_lane serve serve_lane

  # --- fuzz (untrusted-byte parsers under ASan+UBSan) ----------------------
  fuzz_lane() {
    cmake -B build-check/fuzz -S . -DC2LSH_WERROR=ON -DC2LSH_FUZZ=ON \
      -DC2LSH_SANITIZE=address,undefined >/dev/null || return 1
    cmake --build build-check/fuzz -j "${JOBS}" \
      --target wal_replay_fuzz page_header_fuzz index_open_fuzz make_seeds \
      || return 1
    local work=build-check/fuzz/soak
    rm -rf "${work}" && mkdir -p "${work}" || return 1
    build-check/fuzz/fuzz/make_seeds "${work}/corpus" || return 1
    local pair bin sub
    for pair in wal_replay_fuzz:wal page_header_fuzz:page \
                index_open_fuzz:index; do
      bin="${pair%%:*}"; sub="${pair##*:}"
      note "  (fuzz: ${bin}, ${FUZZ_SECONDS}s)"
      ( cd "${work}" &&
        "../fuzz/${bin}" -max_total_time="${FUZZ_SECONDS}" -seed=20120817 \
          "corpus/${sub}" ) || { echo "fuzz harness ${bin} FAILED"; return 1; }
    done
  }
  run_lane fuzz fuzz_lane

  # --- clang thread-safety annotations -------------------------------------
  if command -v clang++ >/dev/null 2>&1; then
    run_lane clang build_and_test build-check/clang -- \
      -DCMAKE_CXX_COMPILER=clang++
  else
    skip_lane clang "clang++ not installed; -Wthread-safety not checked"
  fi

  # --- clang-tidy ----------------------------------------------------------
  tidy_version() {  # major version of the installed clang-tidy, or 0
    clang-tidy --version 2>/dev/null |
      sed -n 's/.*version \([0-9][0-9]*\).*/\1/p' | head -1
  }
  if ! command -v clang-tidy >/dev/null 2>&1; then
    skip_lane tidy "clang-tidy not installed"
  elif [[ "$(tidy_version)" -lt "${TIDY_MIN_VERSION}" ]]; then
    skip_lane tidy "clang-tidy $(tidy_version) < required ${TIDY_MIN_VERSION}"
  else
    tidy_lane() {
      cmake -B build-check/tidy -S . >/dev/null || return 1
      # shellcheck disable=SC2046
      clang-tidy -p build-check/tidy --quiet \
        $(find src -name '*.cc') $(find tools -name '*.cpp')
    }
    run_lane tidy tidy_lane
  fi
fi

# --- perf (opt-in: the repository benchmark, short runs) --------------------
perf_lane() {
  local target="${CARGO_TARGET_DIR:-build-check/perfbench}"
  local run workload trace code out err misses pages status=0
  mkdir -p build-check || return 1
  for run in wire_cold_rw:0 wire_cold_rw:1 embed_batch:0; do
    workload="${run%%:*}"
    trace="${run##*:}"
    out="build-check/perf-${workload}-trace${trace}.stdout"
    err="build-check/perf-${workload}-trace${trace}.stderr"
    note "  (perfbench ${workload}, --trace ${trace})"
    CARGO_TARGET_DIR="${target}" python3 perfbench/run.py \
      --workload "${workload}" --seed 1 --seconds 10 --trace "${trace}" \
      2>"${err}" | tee "${out}"
    code=${PIPESTATUS[0]}
    echo "--- run.py stderr (${workload}, --trace ${trace}) ---"
    cat "${err}"
    if [[ ${code} -ne 0 ]]; then
      if grep -q "VIOLATION\|correctness gate" "${err}"; then
        echo "perf: ${workload} --trace ${trace}: correctness VIOLATION (exit ${code})"
      elif grep -q "invalid run" "${err}"; then
        echo "perf: ${workload} --trace ${trace}: invalid run — the load" \
          "generator fell behind (gen.late_ms_p99 > 5 ms; the host was too" \
          "busy) (exit ${code})"
      else
        echo "perf: ${workload} --trace ${trace}: build failure or crash (exit ${code})"
      fi
      status=${code}
    elif [[ ${run} == wire_cold_rw:1 ]]; then
      # Both figures are on run.py's stdout: "config file_pages = N" and
      # "storage.pool_misses_per_query  X count".
      pages="$(awk '$1 == "config" && $2 == "file_pages" { print $4 }' "${out}")"
      misses="$(awk '$1 == "storage.pool_misses_per_query" { print $2 }' "${out}")"
      if [[ -z "${pages}" || -z "${misses}" ]]; then
        echo "perf: --trace 1: file_pages or storage.pool_misses_per_query" \
          "missing from run.py's output"
        status=1
      elif awk -v m="${misses}" -v p="${pages}" 'BEGIN { exit !(m >= p) }'; then
        echo "perf: --trace 1: ${misses} pool misses per query against a" \
          "${pages}-page file — disk queries re-read entry pages each round"
        status=1
      else
        echo "perf: --trace 1: ${misses} pool misses per query," \
          "under the ${pages}-page file"
      fi
    fi
  done
  return "${status}"
}
if [[ "${PERF}" -eq 1 ]]; then
  run_lane perf perf_lane
fi

# --- verdict ---------------------------------------------------------------
note "summary"
printf '%-10s %-6s %8s  %s\n' "lane" "status" "time" ""
printf '%-10s %-6s %8s\n' "----" "------" "----"
for i in "${!lane_names[@]}"; do
  printf '%-10s %-6s %7ss  %s\n' "${lane_names[$i]}" "${lane_status[$i]}" \
    "${lane_secs[$i]}" "${lane_notes[$i]}"
done
if [[ "${first_fail_code}" -ne 0 ]]; then
  echo
  echo "FIRST FAILURE: lane '${first_fail_name}' (exit ${first_fail_code})"
  exit "${first_fail_code}"
fi
echo
echo "all lanes passed"
