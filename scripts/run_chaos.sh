#!/bin/sh
# Runs the chaos suite (seeded fault-injection sweeps + crafted fault
# scenarios) under AddressSanitizer.  The suite itself sweeps 32 seeds per
# workload and replays each seed twice, asserting bit-identical event traces;
# ASan additionally checks that the retry/loss paths never touch freed
# frames or leak them.  The perf suite (pool invariants, route-table
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
# Usage: scripts/run_chaos.sh [build-dir]
#   default build dir: build-asan (configured from the `asan` CMake preset)
set -e
BUILD=${1:-build-asan}
[ $# -ge 1 ] && shift  # remaining args go straight to ctest

if [ ! -d "$BUILD" ]; then
  echo "== configuring $BUILD (asan preset) =="
  cmake --preset asan
fi
echo "== building chaos/netperf/obs/metrics/parallel/resiliency/service/topology tests and the tools in $BUILD =="
cmake --build "$BUILD" \
  --target chaos_test netperf_test obs_test metrics_test parallel_test \
  resiliency_test service_test topology_test deepsim deepsimd \
  -j "$(nproc)"

# Guard against silently-empty suites: a typo'd or unregistered label would
# otherwise make `ctest -L` select nothing and "pass".  Every expected label
# must match at least one test.  `paper` (the E1..E9 and A1/A2 SHAPE-CHECK
# benches) is only guarded here; the tier-1 ctest run executes it.
echo "== verifying suite labels are populated =="
for label in chaos perf metrics parallel resiliency service topology paper; do
  count=$(ctest --test-dir "$BUILD" -N -L "$label" 2>/dev/null |
    sed -n 's/^Total Tests: *//p')
  if [ -z "$count" ] || [ "$count" -eq 0 ]; then
    echo "FAIL: ctest label '$label' matches no tests — suite selection is broken" >&2
    exit 1
  fi
  echo "   label '$label': $count test(s)"
done

echo "== running chaos + perf + metrics + parallel + resiliency + service + topology suites =="
ctest --test-dir "$BUILD" -L 'chaos|perf|metrics|parallel|resiliency|service|topology' \
  -E bench_fabric_smoke --output-on-failure "$@"
echo "chaos suite passed: sweeps replayed bit-identically (traces and metric snapshots)"
