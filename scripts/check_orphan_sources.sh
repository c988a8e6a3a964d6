#!/usr/bin/env bash
# Fails when a .cpp under tools/, bench/ or examples/ is not named in that
# directory's CMakeLists.txt: such a file is built by no target, so it rots
# silently against the libraries it includes.  A file counts as named when
# its stem (the file name without .cpp) appears as a whole word, which
# covers both `add_executable(x x.cpp)` and helper macros such as
# `deep_add_bench(x)`.
#
# Usage: scripts/check_orphan_sources.sh
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
status=0
for dir in tools bench examples; do
  lists="$ROOT/$dir/CMakeLists.txt"
  for src in "$ROOT/$dir"/*.cpp; do
    [ -e "$src" ] || continue
    stem="$(basename "$src" .cpp)"
    if ! grep -qw -- "$stem" "$lists"; then
      echo "orphaned source: $dir/$stem.cpp is not named in $dir/CMakeLists.txt" >&2
      status=1
    fi
  done
done
[ "$status" -eq 0 ] && echo "check_orphan_sources: every tools/, bench/ and examples/ source is built"
exit "$status"
