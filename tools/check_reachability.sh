#!/usr/bin/env bash
# Lists the autoce:: functions that the src/ libraries define and no
# shipped binary keeps, and fails unless each one is on
# tools/reachability_allowlist.txt.
#
#   tools/check_reachability.sh [work-dir]     # default: build-reach
#
# The shipped binaries are tools/autoce, every bench/ and examples/
# binary, and perfbench (built from perfbench/CMakeLists.txt in its own
# tree). All are built with -O0 -ffunction-sections -fdata-sections and
# linked with -Wl,--gc-sections, so a function stays in a binary exactly
# when something the binary runs can call it. -O0 matters: at -O2 an
# inlined callee leaves no symbol behind and reads as unreached.
#
# The allowlist holds one demangled name per line, then "  # " and the
# test that needs it. A listed name that a binary now reaches fails the
# check too, so the list never outlives its entries.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
work=${1:-$root/build-reach}
allowlist=$root/tools/reachability_allowlist.txt

flags=(-G Ninja -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
       "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

# Runs a build step with its output in $work/build.log, shown on failure.
quiet() {
  "$@" >> "$work/build.log" 2>&1 || { tail -n 40 "$work/build.log"; exit 1; }
}
mkdir -p "$work"
: > "$work/build.log"
quiet cmake -S "$root" -B "$work/main" "${flags[@]}"
quiet cmake --build "$work/main" --target src/all tools/all bench/all examples/all
quiet cmake -S "$root/perfbench" -B "$work/perfbench" "${flags[@]}"
quiet cmake --build "$work/perfbench" --target perfbench

# Defined text symbols of the autoce namespace, demangled, one per line.
autoce_text() {
  nm --defined-only --format=posix "$@" 2> /dev/null |
    awk '$2 ~ /^[TtWw]$/ && $1 ~ /^_ZNK?6autoce/ { print $1 }' |
    c++filt | LC_ALL=C sort -u
}

defined=$(autoce_text "$work"/main/src/*/libautoce_*.a)
binaries=$(find "$work/main/tools" "$work/main/bench" "$work/main/examples" \
             -maxdepth 1 -type f -executable)
kept=$(autoce_text $binaries "$work/perfbench/perfbench")
unreached=$(LC_ALL=C comm -23 <(echo "$defined") <(echo "$kept"))
allowed=$(sed -e '/^#/d' -e 's/  # .*//' -e '/^$/d' "$allowlist" |
            LC_ALL=C sort -u)

status=0
extra=$(LC_ALL=C comm -23 <(echo "$unreached") <(echo "$allowed"))
if [ -n "$extra" ]; then
  echo "Functions under src/ that no binary reaches and the allowlist omits:"
  echo "$extra" | sed 's/^/  /'
  status=1
fi
stale=$(LC_ALL=C comm -13 <(echo "$unreached") <(echo "$allowed"))
if [ -n "$stale" ]; then
  echo "Allowlist entries that a binary now reaches or that no longer exist:"
  echo "$stale" | sed 's/^/  /'
  status=1
fi
if [ "$status" = 0 ]; then
  echo "OK: $(echo "$defined" | wc -l) autoce:: functions under src/;" \
       "$(echo "$unreached" | sed '/^$/d' | wc -l) unreached, all allowlisted."
fi
exit "$status"
