#!/usr/bin/env bash
# CI speedup gate for the parallel engine (docs/parallel_engine.md).
#
# Compares a fresh bench_parallel measurement against the floor recorded in
# the checked-in baseline (results/BENCH_parallel.json):
# baseline.speedup_floor, the minimum over workloads of the wall-clock
# speedup at baseline.gate_workers workers.
#
# The fingerprint check ("deterministic") is enforced on EVERY host:
# bit-identical outcomes across worker counts are measurable even on one
# CPU.
#
# The speedup gate only means something on a machine that can actually run
# the workers in parallel: when the measurement says "undersubscribed": true
# (host_cpus < gate_workers), the check warns and exits 0 on a developer
# machine — a 1-CPU container cannot measure parallel speedup.  In CI
# (CI=true, which GitHub sets on every runner) an undersubscribed
# measurement is itself a failure: hosted runners have >= 4 vCPUs, so
# undersubscription there means the runner shape silently changed and the
# speedup floor would otherwise be waived forever.
#
# On a passing (or waived) run the check appends a dated entry to the
# "history" array of the baseline file, so the committed
# results/BENCH_parallel.json accumulates a measurement log across PRs.
#
# Usage: scripts/check_bench_parallel.sh [measured.json] [baseline.json]
#   defaults: results/BENCH_parallel_ci.json, results/BENCH_parallel.json
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
MEASURED="${1:-$ROOT/results/BENCH_parallel_ci.json}"
BASELINE="${2:-$ROOT/results/BENCH_parallel.json}"

if [ ! -f "$MEASURED" ]; then
  echo "check_bench_parallel: no measurement at $MEASURED" >&2
  echo "check_bench_parallel: run scripts/run_bench_parallel.sh first" >&2
  exit 1
fi
if [ ! -f "$BASELINE" ]; then
  echo "check_bench_parallel: no baseline at $BASELINE" >&2
  exit 1
fi

python3 - "$MEASURED" "$BASELINE" <<'EOF'
import datetime
import json
import os
import sys

with open(sys.argv[1]) as f:
    measured = json.load(f)
with open(sys.argv[2]) as f:
    baseline = json.load(f)

floor = baseline["baseline"]["speedup_floor"]
gate_workers = baseline["baseline"].get("gate_workers", 4)
host_cpus = measured.get("host_cpus", 0)
undersubscribed = measured.get("undersubscribed", host_cpus < gate_workers)
speedup = measured.get("gate_speedup")
deterministic = measured.get("deterministic", False)

print(f"check_bench_parallel: host_cpus={host_cpus} "
      f"gate_workers={gate_workers} floor={floor}")

# Full per-worker speedup table, so the CI log shows the whole curve and not
# just the gated point.
rows = []
for wl in measured.get("workloads", []):
    for run in wl.get("runs", []):
        rows.append((wl["name"], run["workers"], run["wall_ms"],
                     run["speedup"]))
if rows:
    print(f"  {'workload':<10} {'workers':>7} {'wall_ms':>10} {'speedup':>8}")
    for name, workers, wall, sp in rows:
        print(f"  {name:<10} {workers:>7} {wall:>10.1f} {sp:>8.2f}")
for wl in measured.get("workloads", []):
    print(f"  {wl['name']}: speedup_at_gate={wl['speedup_at_gate']:.2f}")

if not deterministic:
    print("FAIL: simulation outcomes differ across worker counts")
    sys.exit(1)


def append_history(status):
    entry = {
        "date": datetime.date.today().isoformat(),
        "status": status,
        "host_cpus": host_cpus,
        "undersubscribed": bool(undersubscribed),
        "gate_speedup": speedup,
    }
    baseline.setdefault("history", []).append(entry)
    with open(sys.argv[2], "w") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")
    print(f"history: appended {entry['date']} entry to {sys.argv[2]}")


if undersubscribed:
    if os.environ.get("CI", "").lower() in ("1", "true", "yes"):
        print(f"FAIL: undersubscribed measurement in CI ({host_cpus} cpu(s) "
              f"< {gate_workers} workers) — hosted runners have >= "
              f"{gate_workers} vCPUs, so the speedup floor would be waived "
              f"silently; fix the runner shape or the bench invocation")
        sys.exit(1)
    append_history("waived-undersubscribed")
    print(f"SKIP: undersubscribed host ({host_cpus} cpu(s) < "
          f"{gate_workers} workers) — speedup unmeasurable, gate waived "
          f"(local run only; CI=true makes this a failure)")
    sys.exit(0)

if speedup is None:
    print("FAIL: measurement carries no gate_speedup field")
    sys.exit(1)

if speedup < floor:
    print(f"FAIL: {gate_workers}-worker speedup {speedup:.2f} < "
          f"floor {floor} (min over workloads)")
    sys.exit(1)

append_history("pass")
print(f"PASS: {gate_workers}-worker speedup {speedup:.2f} >= floor {floor}")
EOF
