#!/usr/bin/env python3
"""Samples where a command spends host CPU time, per DEEPsim layer.

    scripts/host_profile.py [--sampler LIB]
                            [--check-min-samples N] [--check-layer L]
                            -- COMMAND [ARGS...]

Runs COMMAND with the host_sampler library (tools/host_sampler.cpp) in
LD_PRELOAD; the library samples the program counter on every SIGPROF, in
every thread, and measures each process's CPU time.  The timer asks for a
signal per millisecond of CPU, but the kernel may deliver fewer (about one
per 3.9 ms on a shared VM), so a sample weighs its process's measured CPU
time divided by its sample count.  Each sampled address is resolved with
`addr2line -i -f -C`, inlined frames included.

Two tables follow the command's own output (which passes through):
- layers: a sample counts for the innermost frame that is a `deep::<layer>::`
  function, or a function with no scope (a lambda's static invoker `_FUN`)
  whose source lies under `src/<layer>/`.  Samples in a shared object without
  such a frame form a row of their own, named after the object (libc,
  libstdc++, libm, ...); samples in the executable with none (main, gtest,
  perfbench's own code) form `other`.
- the TOP_FUNCTIONS most sampled outermost functions: the function the sampled instruction lies
  in, after inlining.  A name with no scope carries its file:line, as in
  `_FUN (src/svc/session.cpp:NN)`.  An object without a symbol table (.symtab), such as
  a stripped libc, has rows `<object> (no symbols)`: addr2line would name
  its samples after the nearest exported symbol, which is mostly wrong.

A sample in an object without a symbol table is charged to its caller
when the sampler's return-address guess for it (the word at the stack
pointer, for a leaf routine such as memset, else the word above the frame
pointer) lies in an object with symbols, right after a call instruction.
It then counts for the caller's layer, and its function row reads
`<object> (no symbols) from <caller>`; a line after the tables says how
many such samples found their caller.

Inline frames need debug info (-g); without it every sample goes to its
outermost function's layer.  --check-min-samples and --check-layer turn the
run into a smoke test: the exit code is 1 when there are fewer samples, no
row of that layer, or (with --check-min-samples) a measured CPU time more
than CPU_TOLERANCE away from the CPU time getrusage() reports for the
command.  Otherwise the exit code is the command's.
"""

import argparse
import bisect
import collections
import functools
import glob
import os
import re
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SAMPLER = ROOT / "build" / "tools" / "libhost_sampler.so"
TOP_FUNCTIONS = 15
CPU_TOLERANCE = 0.15


def read_samples(prefix):
    """Returns (interval_us, maps, pcs, weights, cpu_ns) merged over every
    process file; weights maps a pid file to its CPU nanoseconds per sample,
    cpu_ns is the measured CPU time of all processes."""
    interval = None
    cpu_ns = 0
    maps = {}     # pid file -> list of (start, end, offset, path, perms)
    pcs = []      # (pid file, pc, count, return-address guesses)
    weights = {}  # pid file -> measured CPU ns / samples
    for path in sorted(glob.glob(prefix + ".*")):
        regions = []
        with open(path) as f:
            for line in f:
                kind, _, rest = line.partition(" ")
                if kind == "host_sampler":
                    header = rest.split()
                    fields = dict(zip(header[::2], map(int, header[1::2])))
                    interval = fields["interval_us"]
                    weights[path] = fields["cpu_ns"] / max(fields["samples"], 1)
                    cpu_ns += fields["cpu_ns"]
                elif kind == "map":
                    fields = rest.split(None, 5)
                    if len(fields) < 6:
                        continue
                    start, end = (int(v, 16) for v in fields[0].split("-"))
                    regions.append((start, end, int(fields[2], 16),
                                    fields[5].strip(), fields[1]))
                elif kind == "pc":
                    pc, count, *guesses = rest.split()
                    pcs.append((path, int(pc, 16), int(count),
                                [int(g, 16) for g in guesses]))
        maps[path] = sorted(regions)
    return interval, maps, pcs, weights, cpu_ns


@functools.lru_cache(maxsize=None)
def is_shared_elf(path):
    """True for position-independent objects (ET_DYN): PIE and .so files."""
    try:
        with open(path, "rb") as f:
            header = f.read(18)
    except OSError:
        return False
    return header[:4] == b"\x7fELF" and header[16] == 3


@functools.lru_cache(maxsize=None)
def has_symtab(path):
    """True when the ELF object `path` has a .symtab section."""
    out = subprocess.run(["readelf", "-S", "-W", path], capture_output=True,
                         text=True, check=False).stdout
    return " .symtab " in out


def load_bias(path, regions_of_all):
    """Address at which `path` is mapped with file offset 0 (0 for ET_EXEC)."""
    if not is_shared_elf(path):
        return 0
    starts = [s for s, _, off, p, _ in regions_of_all if p == path and off == 0]
    return min(starts) if starts else None


def region_of(regions, addr):
    """The mapping of `regions` that holds `addr`, or None."""
    k = bisect.bisect_right(regions, (addr, float("inf"))) - 1
    return regions[k] if k >= 0 and regions[k][0] <= addr < regions[k][1] else None


@functools.lru_cache(maxsize=None)
def file_bytes(path):
    try:
        return Path(path).read_bytes()
    except OSError:
        return b""


def follows_call(path, offset):
    """True when the bytes of `path` just before file offset `offset` end an
    x86-64 call: `call rel32` (E8) or an indirect call (FF /2) in its 2-,
    3-, 4-, 6- or 7-byte forms."""
    data = file_bytes(path)
    if not 7 <= offset <= len(data):
        return False
    if data[offset - 5] == 0xE8:
        return True
    return any(data[offset - n] == 0xFF and (data[offset - n + 1] >> 3) & 7 == 2
               for n in (2, 3, 4, 6, 7))


def caller_of(regions, guesses):
    """(object, address of the call) for the first return-address guess
    that lies in an executable mapping of an object with symbols, right
    after a call instruction; None when no guess does."""
    for ret in guesses:
        region = region_of(regions, ret)
        if region is None:
            continue
        start, _, offset, obj, perms = region
        if ("x" not in perms or not obj.startswith("/") or not has_symtab(obj)
                or not follows_call(obj, ret - start + offset)):
            continue
        bias = load_bias(obj, regions)
        if bias is not None:
            return obj, ret - 1 - bias
    return None


def resolve(obj, addrs):
    """addr -> list of (function name, file:line), innermost inline frame
    first."""
    if not addrs or not os.path.isfile(obj):
        return {}
    out = subprocess.run(
        ["addr2line", "-i", "-f", "-C", "-a", "-e", obj] +
        ["0x%x" % a for a in addrs],
        capture_output=True, text=True, check=False).stdout.splitlines()
    # Per address: its "0x..." line, then a function line and a file:line
    # line for each frame.
    frames, current, function = {}, None, None
    for line in out:
        if re.fullmatch(r"0x[0-9a-f]+", line):
            current, function = int(line, 16), None
            frames[current] = []
        elif current is not None:
            if function is None:
                function = line
            else:
                frames[current].append((function, source_of(line)))
                function = None
    return frames


def source_of(location):
    """addr2line's file:line, relative to the repo root, or None when unknown."""
    location = location.split(" (discriminator")[0]
    if location.startswith("??"):
        return None
    root = str(ROOT) + os.sep
    return location[len(root):] if location.startswith(root) else location


def layer_of(function, source=None):
    """`deep::<layer>` namespace of a demangled function name; for a name
    with no scope (a lambda's static invoker `_FUN`, a C function), the
    `src/<layer>/` directory of its source file.  None when neither says."""
    name = function.replace("(anonymous namespace)", "anon").split("(")[0]
    while True:  # drop template arguments, innermost first
        stripped = re.sub(r"<[^<>]*>", "", name)
        if stripped == name:
            break
        name = stripped
    m = re.search(r"\bdeep::(\w+)::", name)
    if m:
        return m.group(1)
    m = re.match(r"src/(\w+)/", source or "") if "::" not in name else None
    return m.group(1) if m else None


def label(function, source):
    """Row name of an outermost frame: an unscoped name carries its file:line,
    which is all that tells one `_FUN` from another."""
    if "::" in function.split("(")[0] or not source:
        return function
    return "%s (%s)" % (function, source)


def object_row(path):
    base = os.path.basename(path)
    return re.sub(r"(-[\d.]+)?\.so.*$", "", base) or path


def is_executable(path):
    return not re.search(r"\.so(\.|$)", path)


def profile(prefix):
    interval, maps, pcs, weights, cpu_ns = read_samples(prefix)
    layers = collections.Counter()          # layer -> CPU ns
    functions = collections.Counter()       # function -> CPU ns
    wanted = collections.defaultdict(set)   # object -> addresses
    placed = []                 # (object, addr, count, is_exe, ns, caller)
    # Object without a .symtab -> [samples charged to their caller, samples]
    unnamed = collections.defaultdict(lambda: [0, 0])
    biases = {}                 # (pid file, object) -> bias
    for pid_file, pc, count, guesses in pcs:
        ns = count * weights[pid_file]
        regions = maps.get(pid_file, [])
        region = region_of(regions, pc)
        if region is None:
            placed.append((None, pc, count, False, ns, None))
            continue
        obj = region[3]
        if (pid_file, obj) not in biases:
            biases[pid_file, obj] = (load_bias(obj, regions)
                                     if obj.startswith("/") else None)
        bias = biases[pid_file, obj]
        if bias is None:
            placed.append((obj or "?", None, count, False, ns, None))
            continue
        is_exe = is_executable(obj)
        if not has_symtab(obj):
            caller = caller_of(regions, guesses)
            if caller:
                wanted[caller[0]].add(caller[1])
                unnamed[obj][0] += count
            unnamed[obj][1] += count
            placed.append((obj, None, count, is_exe, ns, caller))
            continue
        addr = pc - bias
        wanted[obj].add(addr)
        placed.append((obj, addr, count, is_exe, ns, None))
    resolved = {obj: resolve(obj, sorted(addrs)) for obj, addrs in wanted.items()}

    def layer_and_outer(obj, addr, is_exe):
        """Layer of `addr` in `obj` and its outermost named function."""
        chain = resolved.get(obj, {}).get(addr, []) if addr is not None else []
        chain = [f for f in chain if f[0] != "??"]
        layer = next((l for l in (layer_of(*f) for f in chain) if l), None)
        if layer is None:
            layer = "other" if is_exe else object_row(obj or "?")
        return layer, label(*chain[-1]) if chain else "?"

    total = 0
    for obj, addr, count, is_exe, ns, caller in placed:
        total += count
        if caller:  # charged to the caller's layer and function
            layer, outer = layer_and_outer(*caller, is_executable(caller[0]))
            outer = "%s (no symbols) from %s" % (object_row(obj), outer)
        else:
            layer, outer = layer_and_outer(obj, addr, is_exe)
            if obj in unnamed:
                outer = "%s (no symbols)" % object_row(obj)
            elif not is_exe:
                outer += " [%s]" % object_row(obj or "?")
        layers[layer] += ns
        functions[outer] += ns
    return interval, total, cpu_ns, layers, functions, unnamed


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
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        status = subprocess.run(command, env=env, check=False).returncode
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        rusage_s = (after.ru_utime + after.ru_stime -
                    before.ru_utime - before.ru_stime)
        interval, total, cpu_ns, layers, functions, unnamed = profile(prefix)

    cpu_ms = cpu_ns / 1e6
    print("host_profile: %d samples over %.1f ms of measured CPU time "
          "(%.2f ms per sample; the timer asks for %s us)"
          % (total, cpu_ms, cpu_ms / max(total, 1),
             interval if interval is not None else "?"))
    print("%-22s %8s %7s" % ("layer", "cpu_ms", "share"))
    for layer, ns in layers.most_common():
        print("%-22s %8.1f %6.1f%%" % (layer, ns / 1e6,
                                       100.0 * ns / max(cpu_ns, 1)))
    print("top %d outermost functions (cpu_ms, share):" % TOP_FUNCTIONS)
    for name, ns in functions.most_common(TOP_FUNCTIONS):
        print("%8.1f %6.1f%%  %s" % (ns / 1e6, 100.0 * ns / max(cpu_ns, 1),
                                     short(name)))
    for obj, (with_caller, samples) in sorted(unnamed.items()):
        print("%s (no symbols): %d of %d samples charged to their caller"
              % (object_row(obj), with_caller, samples))

    failed = []
    if total < args.check_min_samples:
        failed.append("%d samples, want at least %d"
                      % (total, args.check_min_samples))
    if args.check_layer and layers[args.check_layer] == 0:
        failed.append("no samples in layer %s" % args.check_layer)
    if (args.check_min_samples and
            abs(cpu_ms / 1e3 - rusage_s) > CPU_TOLERANCE * rusage_s):
        failed.append("measured %.3f s of CPU, getrusage reports %.3f s"
                      % (cpu_ms / 1e3, rusage_s))
    for msg in failed:
        print("host_profile: CHECK FAILED: " + msg, file=sys.stderr)
    if failed:
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
