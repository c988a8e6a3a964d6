#!/usr/bin/env bash
# Fails when a .cpp is not named in its directory's CMakeLists.txt: such a
# file is built by no target, so it rots silently against the code it
# includes.  Checked directories: every library under src/ (against that
# library's CMakeLists.txt), tests/, tools/, bench/ and examples/.  A file
# counts as named when its stem (the file name without .cpp) appears as a
# whole word, which covers `add_library(x a.cpp)`, `add_executable(x x.cpp)`
# and helper macros such as `deep_add_bench(x)`.
#
# Usage: scripts/check_orphan_sources.sh
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
status=0
for dir in "$ROOT"/src/*/ "$ROOT"/tests/ "$ROOT"/tools/ "$ROOT"/bench/ \
           "$ROOT"/examples/; do
  dir="${dir%/}"
  rel="${dir#"$ROOT"/}"
  lists="$dir/CMakeLists.txt"
  for src in "$dir"/*.cpp; do
    [ -e "$src" ] || continue
    stem="$(basename "$src" .cpp)"
    if [ ! -f "$lists" ] || ! grep -qw -- "$stem" "$lists"; then
      echo "orphaned source: $rel/$stem.cpp is not named in $rel/CMakeLists.txt" >&2
      status=1
    fi
  done
done
[ "$status" -eq 0 ] && echo "check_orphan_sources: every src/*/, tests/, tools/, bench/ and examples/ source is built"
exit "$status"
