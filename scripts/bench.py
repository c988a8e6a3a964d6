#!/usr/bin/env python3
"""Runs the DEEPsim benches and gates them against one ledger, results/BENCH.json.

    python3 scripts/bench.py run <suite> [--smoke]
    python3 scripts/bench.py check <suite> [measured] [baseline]
    python3 scripts/bench.py selftest

Suites: micro, fabric, parallel, service, topology.

`run` builds the suite's bench binaries in build/ if they are missing, runs
them, reduces their JSON output to ledger rows and writes those rows to
results/measured/<suite>.json (not committed).  Its exit code is the
bench's own verdict.

`check` applies the suite's rules (the RULES table below) to a measurement
(default results/measured/<suite>.json) against a ledger (default
results/BENCH.json).  Every failed rule prints its message and the exit
code is 1.  A pass appends a dated entry to the ledger's `history`; a full
(not --smoke) pass with no rule waived also replaces the suite's rows in
the ledger with the measured ones.  A change that moves a fingerprint on
purpose fails the check: copy the suite's rows from the measurement into
the ledger in the same commit and say why in CHANGES.md.

`selftest` runs no bench: it checks that the ledger passes against itself
and that every rule rejects a perturbation of it.

A row is {suite, name, layer, unit, value, host, build, fingerprint}:
`layer` is the simulator layer the number measures, `host` and `build`
say where and from what it was measured, and `fingerprint` holds a hash
where the row pins one (else null).
"""

import copy
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build"
LEDGER = ROOT / "results" / "BENCH.json"
MEASURED = ROOT / "results" / "measured"

SUITES = {
    "micro": ["bench_micro"],
    "fabric": ["bench_fabric", "bench_application"],
    "parallel": ["bench_parallel"],
    "service": ["bench_service"],
    "topology": ["bench_topology"],
}

# The parallel engine's speedup gate: the minimum over workloads of the
# wall-clock speedup at GATE_WORKERS workers must reach SPEEDUP_FLOOR.
GATE_WORKERS = 4
SPEEDUP_FLOOR = 3.0
# Serving a repeated job from the cache must beat simulating it fresh by this.
HOT_FLOOR = 10.0

MICRO_FILTER = ("BM_EventDispatch|BM_ProcessContextSwitch|BM_MailboxPingPong|"
                "BM_ProcessSpawnStress")
FABRIC_REPS = 5


# --- measuring -------------------------------------------------------------

def build_targets(targets):
    """Configures build/ if needed and builds whichever targets are missing."""
    missing = [t for t in targets if not (BUILD / "bench" / t).is_file()]
    if not missing:
        return
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-B", str(BUILD), "-S", str(ROOT)], check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                    *missing], check=True)


def provenance(cpus=None):
    """The (host, build) strings recorded on every row of a measurement."""
    host = f"{platform.node()}, {cpus or os.cpu_count()} cpu"
    build_type = ""
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
    build_type = build_type or "RelWithDebInfo"  # CMakeLists.txt's default
    sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip()
    return host, f"{build_type} {sha or 'unknown'}"


def run_bench(name, args):
    """Runs one bench binary with `args`; returns its exit code."""
    sys.stdout.flush()
    return subprocess.run([str(BUILD / "bench" / name), *args], cwd=ROOT).returncode


def run_json(name, args):
    """Runs a bench that writes its result to the path after `--json`."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.json"
        code = run_bench(name, ["--json", str(out), *args])
        return (json.loads(out.read_text()) if out.is_file() else None), code


def run_gbench(name, args):
    """Runs a google-benchmark binary; returns its JSON document."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.json"
        code = run_bench(name, [f"--benchmark_out={out}",
                                "--benchmark_out_format=json", *args])
        return (json.loads(out.read_text()) if out.is_file() else None), code


def items_per_second(doc):
    """Benchmark name -> items/s: the median aggregate where repetitions ran."""
    out = {}
    for b in doc["benchmarks"]:
        name = b.get("run_name", b["name"])
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                out[name] = b["items_per_second"]
        else:
            out.setdefault(name, b["items_per_second"])
    return out


def layer_of(bench):
    for prefix, layer in (("BM_Torus", "net"), ("BM_Crossbar", "net"),
                          ("BM_Cbp", "cbp"), ("BM_Mpi", "mpi")):
        if bench.startswith(prefix):
            return layer
    return "sim"


def measure_micro(smoke):
    args = [f"--benchmark_filter={MICRO_FILTER}"]
    if smoke:
        args.append("--benchmark_min_time=0.01")
    doc, code = run_gbench("bench_micro", args)
    rows = [(name, "sim", "items/s", ips, None)
            for name, ips in items_per_second(doc).items()] if doc else []
    return rows, None, code


def measure_fabric(smoke):
    # Random interleaving spreads the repetitions of each plain/_Metrics
    # pair across the run, so drift does not bias the overhead ratio.
    args = (["--benchmark_min_time=0.01"] if smoke else
            [f"--benchmark_repetitions={FABRIC_REPS}",
             "--benchmark_enable_random_interleaving=true"])
    doc, code = run_gbench("bench_fabric", args)
    if not doc:
        return [], None, code
    ips = items_per_second(doc)
    rows = [(name, layer_of(name), "items/s", v, None)
            for name, v in ips.items() if not name.endswith("_Metrics")]
    # Observability overhead: plain throughput over the identical workload
    # with an obs::Registry attached (budget < 5%, docs/observability.md).
    for name, v in ips.items():
        plain = ips.get(name.removesuffix("_Metrics"))
        if name.endswith("_Metrics") and plain and v:
            rows.append((f"metrics_overhead/{name.removesuffix('_Metrics')}",
                         "obs", "%", round((plain / v - 1.0) * 100, 2), None))
    # End-to-end wall clock of bench_application (median of three).
    walls = []
    for _ in range(1 if smoke else 3):
        start = time.monotonic()
        app = subprocess.run([str(BUILD / "bench" / "bench_application")],
                             cwd=ROOT, stdout=subprocess.DEVNULL)
        walls.append(round((time.monotonic() - start) * 1000))
        code = code or app.returncode
    rows.append(("bench_application_ms", "sys", "ms", statistics.median(walls),
                 None))
    return rows, None, code


def measure_parallel(smoke):
    doc, code = run_json("bench_parallel", ["--reps", "1"] if smoke else [])
    if not doc:
        return [], None, code
    rows = [("deterministic", "sim", "bool", doc["deterministic"], None),
            ("gate_speedup", "sim", "x", doc["gate_speedup"], None),
            ("undersubscribed", "sim", "bool", doc["undersubscribed"], None)]
    return rows, doc["host_cpus"], code


def measure_service(smoke):
    doc, code = run_json("bench_service", ["--smoke"] if smoke else [])
    if not doc:
        return [], None, code
    rows = [("fingerprints_equal", "svc", "bool", doc["fingerprints_equal"], None),
            ("probe", "svc", "fnv1a64", None, doc["fingerprint"]),
            ("hot_over_cold", "svc", "x", doc["hot_over_cold"], None)]
    return rows, doc["host_cpus"], code


ORDERING_ROWS = ("flows_identical", "fattree_nonblocking_ps", "fattree_oversub_ps",
                 "fattree_adaptive_ps", "dragonfly_minimal_ps",
                 "dragonfly_adaptive_ps", "dragonfly_adaptive_detours",
                 "dragonfly_chaos_drops", "dragonfly_chaos_detours",
                 "torus_chaos_drops")
MATRIX_FLAGS = ("all_runs_identical", "clean_cells_ok", "deep_adaptive_noop")


def cell_name(c):
    return "cell/{}/{}/{}/{}".format(c["topology"], c["workload"],
                                     "adaptive" if c["adaptive"] else "static",
                                     "chaos" if c["chaos"] else "clean")


def measure_topology(smoke):
    doc, code = run_json("bench_topology", ["--smoke"] if smoke else [])
    if not doc:
        return [], None, code
    matrix, orderings = doc["matrix"], doc["orderings"]
    rows = [(cell_name(c), "sys", "ps", c["final_ps"], c["fingerprint"])
            for c in matrix["cells"]]
    rows += [(flag, "sys", "bool", matrix[flag], None) for flag in MATRIX_FLAGS]
    rows += [(name, "net", "bool" if name == "flows_identical" else
              "ps" if name.endswith("_ps") else "count", orderings[name], None)
             for name in ORDERING_ROWS]
    return rows, None, code


MEASURE = {"micro": measure_micro, "fabric": measure_fabric,
           "parallel": measure_parallel, "service": measure_service,
           "topology": measure_topology}


def run(suite, smoke):
    build_targets(SUITES[suite])
    rows, cpus, code = MEASURE[suite](smoke)
    host, build = provenance(cpus)
    measured = {
        "suite": suite,
        "smoke": smoke,
        "rows": [{"suite": suite, "name": n, "layer": layer, "unit": unit,
                  "value": value, "host": host, "build": build,
                  "fingerprint": fp} for n, layer, unit, value, fp in rows],
    }
    out = MEASURED / f"{suite}.json"
    write_json(out, measured)
    print(f"wrote {len(rows)} rows to {out.relative_to(ROOT)}")
    return code if rows else (code or 1)


# --- the rules -------------------------------------------------------------

class Rows:
    """A suite's rows by name; `m[name]` is the row's value (its fingerprint
    for hash rows) and raises KeyError when the row is missing.  `ci` says
    whether the rules run on a CI runner."""

    def __init__(self, rows, ci=False):
        self.rows = {r["name"]: r for r in rows}
        self.ci = ci

    def __getitem__(self, name):
        row = self.rows[name]
        return row["fingerprint"] if row["fingerprint"] is not None else row["value"]

    def cells(self):
        return {n: r["fingerprint"] for n, r in self.rows.items()
                if n.startswith("cell/")}


def in_ci():
    return os.environ.get("CI", "").lower() in ("1", "true", "yes")


def moved_cells(m, b):
    base = b.cells()
    return [n for n, fp in m.cells().items() if base.get(n) != fp]


# One entry per gate: `condition(m, b)` is evaluated on the measured rows m
# and the ledger's rows b of the suite; `message` (a string, or a function
# of m and b) says what failed.  A rule whose `waived(m)` holds is skipped
# outside CI (m.ci false).
Rule = namedtuple("Rule", "suite name condition message waived",
                  defaults=(None,))

RULES = [
    # parallel: bit-identical outcomes are measurable on any host; speedup
    # only where the host has a core per gate worker.  Hosted CI runners
    # have >= 4 vCPUs, so an undersubscribed run in CI means the runner
    # shape changed and would otherwise waive the floor silently.
    Rule("parallel", "deterministic", lambda m, b: m["deterministic"] is True,
         "simulation outcomes differ across worker counts"),
    Rule("parallel", "not_undersubscribed_in_ci",
         lambda m, b: not (m.ci and m["undersubscribed"]),
         lambda m, b: f"undersubscribed measurement in CI ({m.rows['undersubscribed']['host']} "
                      f"< {GATE_WORKERS} workers): fix the runner shape or the bench invocation"),
    Rule("parallel", "speedup_floor",
         lambda m, b: m["gate_speedup"] >= SPEEDUP_FLOOR,
         lambda m, b: f"{GATE_WORKERS}-worker speedup {m['gate_speedup']:.2f} < floor "
                      f"{SPEEDUP_FLOOR} (min over workloads)",
         waived=lambda m: m["undersubscribed"]),
    # service: everything is host-independent, nothing is waived.
    Rule("service", "fingerprints_equal", lambda m, b: m["fingerprints_equal"] is True,
         "probe fingerprints diverged between solo run, cache miss and cache hit: "
         "the cache returns results that differ from fresh simulations"),
    Rule("service", "probe_fingerprint", lambda m, b: m["probe"] == b["probe"],
         lambda m, b: f"probe fingerprint {m['probe']} != ledger {b['probe']}: the "
                      "simulation's observable behaviour changed"),
    Rule("service", "hot_over_cold", lambda m, b: m["hot_over_cold"] >= HOT_FLOOR,
         lambda m, b: f"hot/cold throughput ratio {m['hot_over_cold']:.1f} < floor "
                      f"{HOT_FLOOR}: the determinism dividend is not being paid"),
    # topology: virtual time and hashes only, nothing is waived.
    Rule("topology", "cell_count",
         lambda m, b: 0 < len(m.cells()) == len(b.cells()),
         lambda m, b: f"cell count changed: measured {len(m.cells())}, ledger "
                      f"{len(b.cells())}"),
    Rule("topology", "cell_fingerprints", lambda m, b: not moved_cells(m, b),
         lambda m, b: "fingerprint moved off the ledger (the simulation's observable "
                      "behaviour changed): " + ", ".join(moved_cells(m, b))),
    Rule("topology", "all_runs_identical", lambda m, b: m["all_runs_identical"] is True,
         "a cell's two in-process runs diverged: determinism broken"),
    Rule("topology", "clean_cells_ok", lambda m, b: m["clean_cells_ok"] is True,
         "a clean cell failed workload verification"),
    Rule("topology", "deep_adaptive_noop", lambda m, b: m["deep_adaptive_noop"] is True,
         "the deep topology does not ignore the adaptive flag"),
    Rule("topology", "flows_identical", lambda m, b: m["flows_identical"] is True,
         "fabric-level flows diverged across repeats"),
    Rule("topology", "fattree_nonblocking",
         lambda m, b: m["fattree_nonblocking_ps"] <= m["fattree_oversub_ps"],
         "non-blocking fat-tree slower than oversubscribed on cross-leaf traffic"),
    Rule("topology", "fattree_adaptive",
         lambda m, b: m["fattree_adaptive_ps"] <= m["fattree_nonblocking_ps"],
         "adaptive plane selection slower than static ECMP under colliding "
         "cross-leaf traffic"),
    Rule("topology", "dragonfly_adaptive",
         lambda m, b: m["dragonfly_adaptive_ps"] <= m["dragonfly_minimal_ps"],
         "dragonfly UGAL slower than minimal routing under adversarial "
         "group-to-group traffic"),
    Rule("topology", "dragonfly_detours", lambda m, b: m["dragonfly_adaptive_detours"] > 0,
         "dragonfly UGAL took no Valiant detours under adversarial traffic"),
    Rule("topology", "dragonfly_chaos_drops", lambda m, b: m["dragonfly_chaos_drops"] == 0,
         "dragonfly dropped messages after a global-link kill: path-diversity "
         "fallback broken"),
    Rule("topology", "dragonfly_chaos_detours",
         lambda m, b: m["dragonfly_chaos_detours"] > 0,
         "dragonfly global-link kill caused no reroutes"),
    Rule("topology", "torus_chaos_drops", lambda m, b: m["torus_chaos_drops"] > 0,
         "torus delivered across a killed link: dimension-ordered routing has "
         "no alternative path"),
]


def evaluate(suite, measured, baseline, ci):
    """Applies the suite's rules; returns ({rule name: failure message},
    [names of waived rules])."""
    m, b = Rows(measured, ci), Rows(baseline)
    failures, waived = {}, []
    for rule in (r for r in RULES if r.suite == suite):
        try:
            if rule.waived and not ci and rule.waived(m):
                waived.append(rule.name)
            elif not rule.condition(m, b):
                msg = rule.message
                failures[rule.name] = msg(m, b) if callable(msg) else msg
        except KeyError as missing:
            failures[rule.name] = f"no row {missing} in the measurement or the ledger"
        except TypeError:
            failures[rule.name] = "a row it reads has no value"
    return failures, waived


# --- the ledger ------------------------------------------------------------

def write_json(path, doc):
    """Writes `doc` with one list element per line, so ledger diffs are one
    line per changed row."""
    parts = []
    for key, value in doc.items():
        if isinstance(value, list):
            items = ",\n".join("  " + json.dumps(v) for v in value)
            parts.append(f" {json.dumps(key)}: [\n{items}\n ]" if value
                         else f" {json.dumps(key)}: []")
        else:
            parts.append(f" {json.dumps(key)}: {json.dumps(value)}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{\n" + ",\n".join(parts) + "\n}\n")


def load(path, what):
    try:
        return json.loads(Path(path).read_text())
    except OSError:
        sys.exit(f"bench.py: no {what} at {path}")


def check(suite, measured_path, baseline_path):
    measured = load(measured_path, "measurement (run `scripts/bench.py run "
                                   f"{suite}` first)")
    ledger = load(baseline_path, "ledger")
    if measured.get("suite") != suite:
        sys.exit(f"bench.py: {measured_path} measures {measured.get('suite')}, not {suite}")
    rows = measured["rows"]
    failures, waived = evaluate(suite, rows, [r for r in ledger["rows"]
                                              if r["suite"] == suite], in_ci())
    print(f"check {suite}: {len(rows)} rows, smoke={measured['smoke']}, "
          f"host {rows[0]['host'] if rows else '?'}")
    for r in rows:
        shown = r["fingerprint"] if r["fingerprint"] is not None else r["value"]
        print(f"  {r['name']:<44} {shown!s:>20} {r['unit']}")
    for name, msg in failures.items():
        print(f"FAIL {name}: {msg}")
    if failures:
        return 1
    for name in waived:
        print(f"SKIP {name}: undersubscribed host, gate waived "
              "(local run only; CI=true makes this a failure)")

    entry = {"date": datetime.date.today().isoformat(), "suite": suite,
             "status": "waived: " + ", ".join(waived) if waived else "pass",
             "smoke": measured["smoke"], "host": rows[0]["host"] if rows else None}
    entry.update((r["name"], r["fingerprint"] or r["value"]) for r in rows
                 if not r["name"].startswith("cell/"))
    cells = sum(r["name"].startswith("cell/") for r in rows)
    if cells:
        entry["cells"] = cells
    ledger["history"].append(entry)
    if not measured["smoke"] and not waived:
        names = {r["name"] for r in rows}
        ledger["rows"] = [r for r in ledger["rows"]
                          if r["suite"] != suite or r["name"] not in names] + rows
    write_json(Path(baseline_path), ledger)
    print(f"PASS {suite}: history entry appended to {baseline_path}")
    return 0


# --- selftest --------------------------------------------------------------

def set_row(name, value):
    def mutate(rows):
        for r in rows:
            if r["name"] == name:
                if r["fingerprint"] is not None:
                    r["fingerprint"] = value
                else:
                    r["value"] = value
    return mutate


def flip_first_cell(rows):
    cell = next(r for r in rows if r["name"].startswith("cell/"))
    cell["fingerprint"] = format(int(cell["fingerprint"], 16) ^ 1, "016x")


def drop_first_cell(rows):
    rows.remove(next(r for r in rows if r["name"].startswith("cell/")))


def exceed(a, c):
    """Makes row a's value exceed row c's, breaking `a <= c`."""
    def mutate(rows):
        by = {r["name"]: r for r in rows}
        by[a]["value"] = by[c]["value"] + 1
    return mutate


# rule name -> (perturbation of the measured rows, evaluated with CI=true?)
PERTURBATIONS = {
    "deterministic": (set_row("deterministic", False), False),
    "not_undersubscribed_in_ci": (set_row("undersubscribed", True), True),
    "speedup_floor": (set_row("gate_speedup", SPEEDUP_FLOOR - 0.01), False),
    "fingerprints_equal": (set_row("fingerprints_equal", False), False),
    "probe_fingerprint": (set_row("probe", "0000000000000000"), False),
    "hot_over_cold": (set_row("hot_over_cold", HOT_FLOOR - 0.1), False),
    "cell_count": (drop_first_cell, False),
    "cell_fingerprints": (flip_first_cell, False),
    "all_runs_identical": (set_row("all_runs_identical", False), False),
    "clean_cells_ok": (set_row("clean_cells_ok", False), False),
    "deep_adaptive_noop": (set_row("deep_adaptive_noop", False), False),
    "flows_identical": (set_row("flows_identical", False), False),
    "fattree_nonblocking": (exceed("fattree_nonblocking_ps", "fattree_oversub_ps"), False),
    "fattree_adaptive": (exceed("fattree_adaptive_ps", "fattree_nonblocking_ps"), False),
    "dragonfly_adaptive": (exceed("dragonfly_adaptive_ps", "dragonfly_minimal_ps"), False),
    "dragonfly_detours": (set_row("dragonfly_adaptive_detours", 0), False),
    "dragonfly_chaos_drops": (set_row("dragonfly_chaos_drops", 1), False),
    "dragonfly_chaos_detours": (set_row("dragonfly_chaos_detours", 0), False),
    "torus_chaos_drops": (set_row("torus_chaos_drops", 0), False),
}


def selftest():
    ledger = load(LEDGER, "ledger")
    problems = []
    for suite in SUITES:
        rows = [r for r in ledger["rows"] if r["suite"] == suite]
        failures, waived = evaluate(suite, rows, rows, ci=True)
        if failures or waived or not rows:
            problems.append(f"ledger fails its own {suite} rules: {failures or waived or 'no rows'}")
    for rule in RULES:
        if rule.name not in PERTURBATIONS:
            problems.append(f"rule {rule.name} has no perturbation")
            continue
        mutate, ci = PERTURBATIONS[rule.name]
        base = [r for r in ledger["rows"] if r["suite"] == rule.suite]
        measured = copy.deepcopy(base)
        mutate(measured)
        failures, _ = evaluate(rule.suite, measured, base, ci)
        if rule.name not in failures:
            problems.append(f"rule {rule.name} accepts its perturbation")
    # Outside CI an undersubscribed run waives the speedup floor instead.
    base = [r for r in ledger["rows"] if r["suite"] == "parallel"]
    slow = copy.deepcopy(base)
    set_row("undersubscribed", True)(slow)
    set_row("gate_speedup", 1.0)(slow)
    if evaluate("parallel", slow, base, ci=False) != ({}, ["speedup_floor"]):
        problems.append("an undersubscribed local run does not waive the speedup floor")
    for p in problems:
        print(f"FAIL {p}")
    print(f"selftest: {len(RULES)} rules, {len(problems)} problems")
    return 1 if problems else 0


def main(argv):
    usage = __doc__.split("\n\n")[1]
    if argv[:1] == ["selftest"] and len(argv) == 1:
        return selftest()
    if len(argv) >= 2 and argv[0] in ("run", "check") and argv[1] in SUITES:
        verb, suite, rest = argv[0], argv[1], argv[2:]
        if verb == "run" and rest in ([], ["--smoke"]):
            return run(suite, smoke=bool(rest))
        if verb == "check" and len(rest) <= 2:
            paths = rest + [str(MEASURED / f"{suite}.json"), str(LEDGER)][len(rest):]
            return check(suite, *paths)
    sys.exit(f"usage:\n{usage}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
