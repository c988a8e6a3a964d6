#!/bin/sh
# Runs the chaos suite (seeded fault-injection sweeps + crafted fault
# scenarios) under AddressSanitizer.  The suite itself sweeps 32 seeds per
# workload and replays each seed twice, asserting bit-identical event traces;
# ASan additionally checks that the retry/loss paths never touch freed
# frames or leak them.  The engine suite (events, processes and the raw
# fiber switch — label: sim), the perf suite (pool invariants, route-table
# equivalence, zero-allocation checks — label: perf), the metrics suite
# (registry unit tests + snapshot determinism sweeps — label: metrics),
# the parallel suite (multi-worker conservative engine: determinism sweeps,
# cross-partition teardown/wake edge cases — label: parallel) and the
# resiliency suite (multi-level checkpoint/restart: 32-seed kill schedules
# that must complete bit-identically, NVM/FS/buddy unit tests — label:
# resiliency), the service suite (multi-tenant session isolation,
# result-cache identity, chaos-job containment, and the deepsim/deepsimd
# wire and flag-rejection ctests — label: service) and the
# topology suite (dragonfly/fat-tree adaptive routing, reroute-under-fault
# determinism, cross-topology sessions — label: topology) ride along so the
# pooled hot path, the observability layer, the threaded engine, the
# recovery path, the daemon and the swapped fabrics are sanitised too.
#
# With the `tsan` preset it runs the suites that start worker threads —
# sim, metrics, parallel and service — under ThreadSanitizer instead.  The
# host-kernel pool tests (tests/host_kernel_test.cpp) are built into
# parallel_test, so both presets see kernels handed from fibers to pool
# threads and back.
#
# ctest runs every gtest case in a process of its own, so it never sees
# state that one test leaves for the next.  After the ctest pass, each test
# binary therefore runs once more as one whole process; a sanitizer report
# makes it exit non-zero and fails the script.
#
# Usage: scripts/run_chaos.sh [asan|tsan] [ctest args...]
#   default preset: asan; the build dir is build-<preset>, configured from
#   the CMake preset of that name when missing.
set -e
PRESET=${1:-asan}
[ $# -ge 1 ] && shift  # remaining args go straight to ctest
BUILD=build-$PRESET

case "$PRESET" in
  asan)
    TARGETS="sim_test chaos_test netperf_test obs_test metrics_test \
parallel_test resiliency_test service_test topology_test"
    LABELS="sim chaos perf metrics parallel resiliency service topology"
    EXCLUDE=bench_fabric_smoke
    GTEST_FILTER='*'
    ;;
  tsan)
    TARGETS="sim_test obs_test metrics_test parallel_test service_test"
    LABELS="sim metrics parallel service"
    # GCC 12's libtsan gives every live fiber a thread context; 10k live
    # fibers abort with "can not mmap thread trace".  Tier-1 and UBSan
    # still run this test.
    EXCLUDE=Scale.TenThousandProcessesSpawnAndFinish
    GTEST_FILTER=-$EXCLUDE
    ;;
  *)
    echo "usage: $0 [asan|tsan] [ctest args...]" >&2
    exit 2
    ;;
esac

if [ ! -d "$BUILD" ]; then
  echo "== configuring $BUILD ($PRESET preset) =="
  cmake --preset "$PRESET"
fi
echo "== building the $LABELS tests and the tools in $BUILD =="
# shellcheck disable=SC2086  # TARGETS is a word list
cmake --build "$BUILD" --target $TARGETS deepsim deepsimd -j "$(nproc)"

# Guard against silently-empty suites: a typo'd or unregistered label would
# otherwise make `ctest -L` select nothing and "pass".  Every expected label
# must match at least one test.  `paper` (the E1..E9 and A1/A2 SHAPE-CHECK
# benches) is only guarded here; the tier-1 ctest run executes it.
echo "== verifying suite labels are populated =="
for label in $LABELS paper; do
  count=$(ctest --test-dir "$BUILD" -N -L "$label" 2>/dev/null |
    sed -n 's/^Total Tests: *//p')
  if [ -z "$count" ] || [ "$count" -eq 0 ]; then
    echo "FAIL: ctest label '$label' matches no tests — suite selection is broken" >&2
    exit 1
  fi
  echo "   label '$label': $count test(s)"
done

echo "== running the $LABELS suites under $PRESET =="
ctest --test-dir "$BUILD" -L "$(echo "$LABELS" | tr ' ' '|')" \
  -E "$EXCLUDE" --output-on-failure "$@"

echo "== running each test binary as one process under $PRESET =="
for t in $TARGETS; do
  log="$BUILD/Testing/whole-$t.log"
  # From the tests directory, like ctest.
  if (cd "$BUILD/tests" && "./$t" --gtest_filter="$GTEST_FILTER") >"$log" 2>&1; then
    echo "   $t: $(grep -E '^\[  PASSED  \]' "$log")"
  else
    tail -n 60 "$log" >&2
    echo "FAIL: $t as one process under $PRESET (full log: $log)" >&2
    exit 1
  fi
done
echo "$PRESET: the $LABELS suites passed"
