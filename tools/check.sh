#!/usr/bin/env bash
# tools/check.sh — build and run the test suite in the checked configurations.
#
#   ./tools/check.sh            # ASan+UBSan, then TSan
#   ./tools/check.sh asan       # just ASan+UBSan
#   ./tools/check.sh tsan       # just TSan
#   ./tools/check.sh quick      # plain build: tier-1 suite, tune smoke,
#                               # short same-host perf A/B vs HEAD~1
#   ./tools/check.sh --quick    # same as quick
#   ./tools/check.sh faults     # ASan+UBSan: fault tests, then the tier-1
#                               # suite once per BWFFT_FAULTS fault family
#   ./tools/check.sh lint       # static checks: bwfft_lint sweep over the
#                               # tuner grid + seeded-defect assertions
#   ./tools/check.sh chaos      # exec-service fault-family sweep (shed /
#                               # poison / corrupt / slow-batch) under
#                               # ASan+UBSan, then TSan; writes a chaos
#                               # report for the CI artifact
#   ./tools/check.sh ci         # the hosted-CI chain: quick, lint, asan, tsan
#
# Build trees live under BWFFT_BUILD_DIR (default: the repo root), one per
# configuration (build-asan/, build-tsan/, build-quick/) so each can be
# rebuilt incrementally; suppressions/ files are exported through the
# sanitizer runtime options. Any sanitizer report fails the corresponding
# ctest run (halt_on_error / abort_on_error), so a zero exit status here
# means the whole suite ran report-free under both runtimes.
#
# Exit codes are distinct per failing mode, so CI and driver scripts can
# tell which gate fell over without parsing logs:
#
#   0   everything requested passed
#   2   usage error (unknown mode)
#   10  asan failed        11  tsan failed
#   12  quick failed       13  faults failed
#   14  lint failed        15  chaos failed
#
# The quick configuration is the fast pre-push gate: an uninstrumented
# RelWithDebInfo build running `ctest -L tier1`; a tune smoke (bwfft_tune
# twice against a temp wisdom file, asserting the second run is
# wisdom-warmed, "wisdom: hit"); then the short form of the perf gate,
# `tools/perf_ab.py BASE --pairs 3 --seconds 5`: this checkout against
# BASE on the same host, alternating pairs over every BENCHMARK.json
# workload, failing on a correctness miss, a higher failed-op share or an
# end-to-end metric worse than its bound. BASE is $BWFFT_AB_BASE, default
# HEAD~1; when BASE's perfbench/ or BENCHMARK.json differs, this commit
# sets a new baseline and the A/B is skipped. The report is written to
# build-quick/perf_ab.txt. The short form took 5.2-6.6 minutes of wall
# time on a 4-core AVX-512 host, the base's perfbench build (~90 s)
# included.
#
# The faults configuration reuses the ASan+UBSan tree: first the targeted
# `ctest -L fault` suite (spawn/stall injections live there — they need a
# harness that expects the failure), then the ENTIRE tier-1 suite once per
# always-recoverable fault family with BWFFT_FAULTS exported, proving that
# persistent alloc/pin/wisdom failures degrade every test in the tree to
# the fallback path without a single wrong result or leak.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_BASE="${BWFFT_BUILD_DIR:-$ROOT}"
JOBS="${JOBS:-$(nproc)}"

usage() {
  echo "usage: $0 [asan|tsan|quick|faults|lint|chaos|ci ...]" >&2
  exit 2
}

exit_code_for() {
  case "$1" in
    asan) echo 10 ;;
    tsan) echo 11 ;;
    quick|--quick) echo 12 ;;
    faults) echo 13 ;;
    lint) echo 14 ;;
    chaos) echo 15 ;;
    *) echo 2 ;;
  esac
}

run_config() {
  local name="$1" sanitize="$2"
  local build="$BUILD_BASE/build-$name"
  echo "=== [$name] configure: -DBWFFT_SANITIZE=$sanitize ==="
  cmake -B "$build" -S "$ROOT" -DBWFFT_SANITIZE="$sanitize" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  echo "=== [$name] build ==="
  cmake --build "$build" -j "$JOBS"
  echo "=== [$name] ctest -L sanitize ==="
  (
    cd "$build"
    export ASAN_OPTIONS="abort_on_error=1:detect_stack_use_after_return=1"
    export LSAN_OPTIONS="suppressions=$ROOT/suppressions/asan.supp"
    export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1:suppressions=$ROOT/suppressions/ubsan.supp"
    export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1:suppressions=$ROOT/suppressions/tsan.supp"
    ctest -L sanitize --output-on-failure -j "$JOBS"
  )
  echo "=== [$name] clean ==="
}

run_quick() {
  local build="$BUILD_BASE/build-quick"
  echo "=== [quick] configure ==="
  cmake -B "$build" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  echo "=== [quick] build ==="
  cmake --build "$build" -j "$JOBS"
  echo "=== [quick] ctest -L tier1 ==="
  ctest --test-dir "$build" -L tier1 --output-on-failure -j "$JOBS"
  echo "=== [quick] tune smoke ==="
  local wisdom_dir
  wisdom_dir="$(mktemp -d)"
  trap 'rm -rf "$wisdom_dir"' RETURN
  local wisdom="$wisdom_dir/wisdom.json"
  "$build/tools/bwfft_tune" --dims 64x64x64 --level estimate \
      --wisdom "$wisdom"
  # The second invocation must be served from the saved wisdom file —
  # no re-ranking, no measuring.
  "$build/tools/bwfft_tune" --dims 64x64x64 --level estimate \
      --wisdom "$wisdom" | tee "$wisdom_dir/second.log"
  grep -q "wisdom: hit" "$wisdom_dir/second.log"
  local base="${BWFFT_AB_BASE:-HEAD~1}"
  echo "=== [quick] perf A/B vs $base (short form) ==="
  # Exit 1 = the benchmark differs; any other failure (a BASE that is
  # not a commit) falls through to perf_ab.py, which reports it.
  local differs=0
  git -C "$ROOT" diff --quiet "$base" -- perfbench BENCHMARK.json \
      2> /dev/null || differs=$?
  if [[ $differs -eq 1 ]]; then
    echo "benchmark differs from $base: this commit sets a new baseline;" \
         "A/B skipped"
  else
    "$ROOT/tools/perf_ab.py" "$base" --pairs 3 --seconds 5 \
        | tee "$build/perf_ab.txt"
  fi
  echo "=== [quick] clean ==="
}

run_faults() {
  local build="$BUILD_BASE/build-asan"
  echo "=== [faults] configure: -DBWFFT_SANITIZE=address;undefined ==="
  cmake -B "$build" -S "$ROOT" -DBWFFT_SANITIZE="address;undefined" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  echo "=== [faults] build ==="
  cmake --build "$build" -j "$JOBS"
  (
    cd "$build"
    export ASAN_OPTIONS="abort_on_error=1:detect_stack_use_after_return=1"
    export LSAN_OPTIONS="suppressions=$ROOT/suppressions/asan.supp"
    export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1:suppressions=$ROOT/suppressions/ubsan.supp"

    # Targeted injections first: the spawn/stall/recovery tests install
    # their own fault plans and assert the exact degradation taken.
    echo "=== [faults] ctest -L fault ==="
    ctest -L fault --output-on-failure -j "$JOBS"

    # Then the whole tier-1 suite under each always-recoverable family:
    # every test must pass unchanged while the preferred path fails on
    # every hit. The fault-labeled tests are excluded (they ran above and
    # manage their own plans); the wisdom families also exclude the tune
    # directory, whose persistence tests intentionally assert the
    # healthy save path.
    local fam exclude
    for fam in "alloc.huge:*" "alloc.numa:*" "pin:*" \
               "wisdom.torn:*" "wisdom.corrupt:*"; do
      exclude="fault"
      case "$fam" in wisdom.*) exclude="fault|tune" ;; esac
      echo "=== [faults] ctest -L tier1 with BWFFT_FAULTS=\"$fam\" ==="
      BWFFT_FAULTS="$fam" ctest -L tier1 -LE "$exclude" \
          --output-on-failure -j "$JOBS"
    done
  )
  echo "=== [faults] clean ==="
}

run_chaos() {
  # The overload-resilience acceptance sweep (docs/INTERNALS.md §14):
  # `ctest -L chaos` drives every exec fault family — typed sheds,
  # per-tenant quota bounces, bit-exact retries, quarantine + rebuild of
  # poisoned plans, Parseval-caught corruption, the synthetic slow-batch
  # heartbeat and the combined producers-over-capacity storm — first
  # under ASan+UBSan (memory safety across the shed/retry/requeue paths),
  # then under TSan (the dispatcher, watchdog and producers race by
  # design). Both legs reuse the standing sanitizer trees. The full ctest
  # output lands in chaos_report.txt for the CI artifact.
  local report="$BUILD_BASE/chaos_report.txt"
  mkdir -p "$BUILD_BASE"
  : > "$report"
  local leg build sanitize
  for leg in asan tsan; do
    build="$BUILD_BASE/build-$leg"
    case "$leg" in
      asan) sanitize="address;undefined" ;;
      tsan) sanitize="thread" ;;
    esac
    echo "=== [chaos/$leg] configure: -DBWFFT_SANITIZE=$sanitize ==="
    cmake -B "$build" -S "$ROOT" -DBWFFT_SANITIZE="$sanitize" \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
    echo "=== [chaos/$leg] build ==="
    cmake --build "$build" -j "$JOBS"
    echo "=== [chaos/$leg] ctest -L chaos ==="
    (
      cd "$build"
      export ASAN_OPTIONS="abort_on_error=1:detect_stack_use_after_return=1"
      export LSAN_OPTIONS="suppressions=$ROOT/suppressions/asan.supp"
      export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1:suppressions=$ROOT/suppressions/ubsan.supp"
      export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1:suppressions=$ROOT/suppressions/tsan.supp"
      echo "--- chaos leg: $leg ---" >> "$report"
      ctest -L chaos --output-on-failure -j "$JOBS" 2>&1 | tee -a "$report"
    )
  done
  echo "=== [chaos] report: $report ==="
}

run_lint() {
  local build="$BUILD_BASE/build-quick"
  echo "=== [lint] configure ==="
  cmake -B "$build" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  echo "=== [lint] build bwfft_lint ==="
  cmake --build "$build" -j "$JOBS" --target bwfft_lint
  echo "=== [lint] static sweep over the tuner grid ==="
  "$build/tools/bwfft_lint"
  # Seeded defects: every mode must be CAUGHT (nonzero exit). An inject
  # that slips through exits 0, which fails this gate — the verifier is
  # itself verified.
  local mode
  for mode in store-overlap store-gap missing-fence epoch-alias \
              schedule-half schedule-dup; do
    echo "=== [lint] inject $mode (must be caught) ==="
    if "$build/tools/bwfft_lint" --inject "$mode" > /dev/null; then
      echo "inject $mode was NOT caught" >&2
      return 1
    fi
  done
  echo "=== [lint] clean ==="
}

# Internal: run exactly one mode in a child process, where `set -e` is
# fully effective (inside an `if !`/`||` guard the shell suspends -e, so
# the parent drives each mode through a re-invocation instead).
if [[ "${1:-}" == "--one" ]]; then
  [[ $# -eq 2 ]] || usage
  case "$2" in
    asan) run_config asan "address;undefined" ;;
    tsan) run_config tsan "thread" ;;
    quick|--quick) run_quick ;;
    faults) run_faults ;;
    lint) run_lint ;;
    chaos) run_chaos ;;
    *) usage ;;
  esac
  exit 0
fi

if [[ $# -eq 0 ]]; then
  CONFIGS=(asan tsan)
else
  CONFIGS=("$@")
fi

# Validate and expand (`ci` is the hosted pipeline's chain: the quick
# gate plus both sanitizer sweeps).
MODES=()
for cfg in "${CONFIGS[@]}"; do
  case "$cfg" in
    asan|tsan|quick|--quick|faults|lint|chaos) MODES+=("$cfg") ;;
    ci) MODES+=(quick lint asan tsan) ;;
    *) echo "unknown config '$cfg' (expected: asan, tsan, quick, faults, lint, chaos, ci)" >&2
       exit 2 ;;
  esac
done

for cfg in "${MODES[@]}"; do
  "${BASH_SOURCE[0]}" --one "$cfg" || exit "$(exit_code_for "$cfg")"
done

echo "all requested configurations clean"
