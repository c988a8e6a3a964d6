#!/usr/bin/env python3
"""Builds and runs the DEEPsim host-time benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root.  The first run configures and builds
perfbench/ (which compiles the simulator from src/) in .bench_build/perfbench;
later runs rebuild only what changed.  Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result.  The exit code is the
benchmark's: 0 when every output check passed, non-zero otherwise.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"


def build(target):
    """Configures (once) and builds `target`; False when the build fails."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: simulator sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", target,
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the checker self-tests")
    args = parser.parse_args()

    if args.selftest:
        if not build("perfbench_selftest"):
            return 2
        return subprocess.run([str(BUILD_DIR / "perfbench_selftest"),
                               str(BENCH_DIR / "pins.json")], cwd=ROOT).returncode
    if not args.workload:
        parser.error("--workload is required")
    if not build("perfbench"):
        return 2
    cmd = [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--pins", str(BENCH_DIR / "pins.json"),
           "--trace-dir", str(BUILD_DIR / "traces")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
