#!/usr/bin/env python3
"""Samples where a command spends host CPU time, per DEEPsim layer.

    scripts/host_profile.py [--sampler LIB]
                            [--check-min-samples N] [--check-layer L]
                            -- COMMAND [ARGS...]

Runs COMMAND with the host_sampler library (tools/host_sampler.cpp) in
LD_PRELOAD; the library samples the program counter on every SIGPROF, that
is once per millisecond of process CPU time, in every thread.  Each sampled
address is resolved with `addr2line -i -f -C`, inlined frames included.

Two tables follow the command's own output (which passes through):
- layers: a sample counts for the innermost frame that is a `deep::<layer>::`
  function.  Samples in a shared object without such a frame form a row of
  their own, named after the object (libc, libstdc++, libm, ...); samples in
  the executable with none (main, gtest, perfbench's own code) form `other`.
- the TOP_FUNCTIONS most sampled outermost functions: the function the sampled instruction lies
  in, after inlining.

Inline frames need debug info (-g); without it every sample goes to its
outermost function's layer.  --check-min-samples and --check-layer turn the
run into a smoke test: the exit code is 1 when there are fewer samples or no
row of that layer.  Otherwise the exit code is the command's.
"""

import argparse
import bisect
import collections
import functools
import glob
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SAMPLER = ROOT / "build" / "tools" / "libhost_sampler.so"
TOP_FUNCTIONS = 15


def read_samples(prefix):
    """Returns (interval_us, maps, pcs) merged over every process file."""
    interval = None
    maps = {}  # pid file -> list of (start, end, offset, path)
    pcs = []   # (pid file, pc, count)
    for path in sorted(glob.glob(prefix + ".*")):
        regions = []
        with open(path) as f:
            for line in f:
                kind, _, rest = line.partition(" ")
                if kind == "host_sampler":
                    interval = int(rest.split()[1])
                elif kind == "map":
                    fields = rest.split(None, 5)
                    if len(fields) < 6:
                        continue
                    start, end = (int(v, 16) for v in fields[0].split("-"))
                    regions.append((start, end, int(fields[2], 16),
                                    fields[5].strip()))
                elif kind == "pc":
                    pc, count = rest.split()
                    pcs.append((path, int(pc, 16), int(count)))
        maps[path] = sorted(regions)
    return interval, maps, pcs


@functools.lru_cache(maxsize=None)
def is_shared_elf(path):
    """True for position-independent objects (ET_DYN): PIE and .so files."""
    try:
        with open(path, "rb") as f:
            header = f.read(18)
    except OSError:
        return False
    return header[:4] == b"\x7fELF" and header[16] == 3


def load_bias(path, regions_of_all):
    """Address at which `path` is mapped with file offset 0 (0 for ET_EXEC)."""
    if not is_shared_elf(path):
        return 0
    starts = [s for s, _, off, p in regions_of_all if p == path and off == 0]
    return min(starts) if starts else None


def resolve(obj, addrs):
    """addr -> list of function names, innermost inline frame first."""
    if not addrs or not os.path.isfile(obj):
        return {}
    out = subprocess.run(
        ["addr2line", "-i", "-f", "-C", "-a", "-e", obj] +
        ["0x%x" % a for a in addrs],
        capture_output=True, text=True, check=False).stdout.splitlines()
    # Per address: its "0x..." line, then a function line and a file:line
    # line for each frame.
    frames, current, is_function = {}, None, False
    for line in out:
        if re.fullmatch(r"0x[0-9a-f]+", line):
            current, is_function = int(line, 16), True
            frames[current] = []
        elif current is not None:
            if is_function:
                frames[current].append(line)
            is_function = not is_function
    return frames


def layer_of(function):
    """`deep::<layer>` namespace of a demangled function name, or None."""
    name = function.replace("(anonymous namespace)", "anon").split("(")[0]
    while True:  # drop template arguments, innermost first
        stripped = re.sub(r"<[^<>]*>", "", name)
        if stripped == name:
            break
        name = stripped
    m = re.search(r"\bdeep::(\w+)::", name)
    return m.group(1) if m else None


def object_row(path):
    base = os.path.basename(path)
    return re.sub(r"(-[\d.]+)?\.so.*$", "", base) or path


def profile(prefix):
    interval, maps, pcs = read_samples(prefix)
    layers = collections.Counter()
    functions = collections.Counter()
    wanted = collections.defaultdict(set)   # object -> addresses
    placed = []                             # (object, addr, count, is_exe)
    biases = {}                             # (pid file, object) -> bias
    for pid_file, pc, count in pcs:
        regions = maps.get(pid_file, [])
        k = bisect.bisect_right(regions, (pc, float("inf"))) - 1
        if k < 0 or not regions[k][0] <= pc < regions[k][1]:
            placed.append((None, pc, count, False))
            continue
        obj = regions[k][3]
        if (pid_file, obj) not in biases:
            biases[pid_file, obj] = (load_bias(obj, regions)
                                     if obj.startswith("/") else None)
        bias = biases[pid_file, obj]
        if bias is None:
            placed.append((obj or "?", None, count, False))
            continue
        addr = pc - bias
        wanted[obj].add(addr)
        placed.append((obj, addr, count, not re.search(r"\.so(\.|$)", obj)))
    resolved = {obj: resolve(obj, sorted(addrs)) for obj, addrs in wanted.items()}
    total = 0
    for obj, addr, count, is_exe in placed:
        total += count
        chain = resolved.get(obj, {}).get(addr, []) if addr is not None else []
        chain = [f for f in chain if f != "??"]
        layer = next((l for l in map(layer_of, chain) if l), None)
        if layer is None:
            layer = "other" if is_exe else object_row(obj or "?")
        layers[layer] += count
        outer = chain[-1] if chain else "?"
        if not is_exe:
            outer += " [%s]" % object_row(obj or "?")
        functions[outer] += count
    return interval, total, layers, functions


def short(name, width=100):
    return name if len(name) <= width else name[:width - 3] + "..."


def main():
    parser = argparse.ArgumentParser(
        description="Per-layer host CPU profile of a command.")
    parser.add_argument("--sampler", help="path of libhost_sampler.so")
    parser.add_argument("--check-min-samples", type=int, default=0)
    parser.add_argument("--check-layer")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given (put it after --)")
    sampler = Path(args.sampler) if args.sampler else DEFAULT_SAMPLER
    if not sampler.is_file():
        parser.error("sampler library not found; build the host_sampler "
                     "target or pass --sampler")

    with tempfile.TemporaryDirectory(prefix="host_profile.") as tmp:
        prefix = os.path.join(tmp, "samples")
        env = dict(os.environ, HOST_SAMPLER_OUT=prefix,
                   LD_PRELOAD=str(sampler.resolve()))
        status = subprocess.run(command, env=env, check=False).returncode
        interval, total, layers, functions = profile(prefix)

    print("host_profile: %d samples at %s us of CPU time each"
          % (total, interval if interval is not None else "?"))
    print("%-22s %8s %7s" % ("layer", "samples", "share"))
    for layer, count in layers.most_common():
        print("%-22s %8d %6.1f%%" % (layer, count, 100.0 * count / max(total, 1)))
    print("top %d outermost functions:" % TOP_FUNCTIONS)
    for name, count in functions.most_common(TOP_FUNCTIONS):
        print("%8d %6.1f%%  %s" % (count, 100.0 * count / max(total, 1),
                                   short(name)))

    failed = []
    if total < args.check_min_samples:
        failed.append("%d samples, want at least %d"
                      % (total, args.check_min_samples))
    if args.check_layer and layers[args.check_layer] == 0:
        failed.append("no samples in layer %s" % args.check_layer)
    for msg in failed:
        print("host_profile: CHECK FAILED: " + msg, file=sys.stderr)
    if failed:
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
