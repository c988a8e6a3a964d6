#!/usr/bin/env bash
# Fails on files that nothing runs, since they rot silently against the code
# they use:
#   * a .cpp not named in its directory's CMakeLists.txt is built by no
#     target.  Checked directories: every library under src/ (against that
#     library's CMakeLists.txt), tests/, tools/, bench/ and examples/.  A
#     file counts as named when its stem (the file name without .cpp)
#     appears as a whole word, which covers `add_library(x a.cpp)`,
#     `add_executable(x x.cpp)` and helper macros such as `deep_add_bench(x)`.
#   * a file under scripts/, or a tests/*.py, whose name appears in no
#     CMakeLists.txt, no .github/workflows/*.yml and no other file under
#     scripts/ is run by no test, CI job or script.
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

mapfile -t runners < <(
  find "$ROOT" \( -name '.git' -o -name 'build*' \) -prune -o \
       -name CMakeLists.txt -print
  find "$ROOT/.github/workflows" -name '*.yml' 2>/dev/null
)
for file in "$ROOT"/scripts/* "$ROOT"/tests/*.py; do
  [ -f "$file" ] || continue
  name="$(basename "$file")"
  others=()
  for script in "$ROOT"/scripts/*; do
    [ -f "$script" ] && [ "$script" != "$file" ] && others+=("$script")
  done
  if ! grep -qF -- "$name" "${runners[@]}" "${others[@]}"; then
    echo "orphaned script: ${file#"$ROOT"/} is named in no CMakeLists.txt, workflow or other script" >&2
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "check_orphan_sources: every source is built and every script is run"
exit "$status"
