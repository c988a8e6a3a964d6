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
# sim, metrics, parallel and service — under ThreadSanitizer instead.
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
    ;;
  tsan)
    TARGETS="sim_test obs_test metrics_test parallel_test service_test"
    LABELS="sim metrics parallel service"
    # GCC 12's libtsan gives every live fiber a thread context; 10k live
    # fibers abort with "can not mmap thread trace".  Tier-1 and UBSan
    # still run this test.
    EXCLUDE=Scale.TenThousandProcessesSpawnAndFinish
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
echo "$PRESET: the $LABELS suites passed"
