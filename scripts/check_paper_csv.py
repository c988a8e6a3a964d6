#!/usr/bin/env python3
"""Usage: check_paper_csv.py <bench binary> <results/bench_x.csv>

Runs a paper bench with --csv.  Fails when the bench fails (a SHAPE-CHECK
did not hold) or prints a line that its checked-in CSV lacks: a change that
moves a figure regenerates that CSV with it, from the build directory:

    build/bench/<bench> --csv > results/<bench>.csv

`ctest -L paper` runs this check for every E1-E9 and A1/A2 bench.
"""

import subprocess
import sys

bench, csv = sys.argv[1:]
run = subprocess.run([bench, "--csv"], stdout=subprocess.PIPE, text=True)
sys.stdout.write(run.stdout)
with open(csv, encoding="utf-8") as f:
    recorded = set(f.read().splitlines())
moved = [line for line in run.stdout.splitlines() if line not in recorded]
for line in moved:
    print(f"not in {csv}: {line}", file=sys.stderr)
sys.exit(run.returncode or (1 if moved else 0))
