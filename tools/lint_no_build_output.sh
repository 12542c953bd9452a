#!/usr/bin/env sh
# Fails if build output is tracked in git: CMake's generated files, static
# libraries, object files, or any file that starts with the ELF magic
# (executables). Builds go to build/ (and the benchmark's to .bench_build/),
# which .gitignore keeps out of the index.
#
# Usage: tools/lint_no_build_output.sh  (from the repository root)
set -eu

PATTERN='(^|/)(CMakeFiles/|CMakeCache\.txt$|cmake_install\.cmake$|CTestTestfile\.cmake$)|^Makefile$|\.(a|o)$'

found=$(git ls-files | grep -E "$PATTERN" || true)
elf=$(git ls-files | while IFS= read -r path; do
  if [ -f "$path" ] && [ "$(head -c 4 "$path" | od -An -tx1 | tr -d ' \n')" = "7f454c46" ]; then
    echo "$path"
  fi
done)

if [ -n "$found$elf" ]; then
  printf '%s\n' $found $elf | sort -u >&2
  echo "lint_no_build_output: build output is tracked in git (above); git rm it and" >&2
  echo "  build into build/ instead." >&2
  exit 1
fi
echo "lint_no_build_output: OK — no build output tracked"
