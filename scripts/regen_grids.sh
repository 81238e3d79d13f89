#!/usr/bin/env bash
#
# Regenerate every checked-in BENCH_<figure>.json grid and compare it
# byte for byte with the tree's copy.
#
# Usage: scripts/regen_grids.sh [SWEEP_MAIN] [JOBS]
#        (default SWEEP_MAIN: build/sweep_main; JOBS: one per CPU)
#
# Each BENCH_F.json in the repo root is regenerated by
# `sweep_main --figure F --jobs JOBS --json` into a temporary directory
# that is removed on exit.  Prints one line per grid and exits 1 naming
# every grid that differs (or that sweep_main failed to produce); a
# model-neutral change leaves all nine byte-identical.  About 10-15 s in
# total on 4 CPUs.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
sweep_main="${1:-$repo_root/build/sweep_main}"
jobs="${2:-$(nproc 2>/dev/null || echo 2)}"

if [ ! -x "$sweep_main" ]; then
    echo "error: $sweep_main is not an executable (build it first)" >&2
    exit 2
fi
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

differ=""
for grid in "$repo_root"/BENCH_*.json; do
    f="${grid##*/BENCH_}"
    f="${f%.json}"
    start=$(date +%s%N)
    if "$sweep_main" --figure "$f" --jobs "$jobs" --quiet \
            --json "$tmp/BENCH_$f.json" >"$tmp/$f.log" 2>&1 &&
        cmp -s "$tmp/BENCH_$f.json" "$grid"; then
        verdict="identical"
    else
        verdict="DIFFERS"
        differ="$differ $f"
    fi
    ms=$((($(date +%s%N) - start) / 1000000))
    printf '%-9s %-9s %3d.%d s\n' "$f" "$verdict" $((ms / 1000)) \
        $((ms % 1000 / 100))
done

if [ -n "$differ" ]; then
    echo "grids that differ from the tree:$differ" >&2
    exit 1
fi
echo "all grids byte-identical"
