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
# that is removed on exit.  Every grid of `sweep_main --list` is checked
# in (SweepSchema.EveryCheckedInGridMatchesItsDefinition fails on one
# that is not), so a new grid gets its BENCH_F.json with it.  Prints one
# line per grid and exits 1 naming every grid that differs (or that
# sweep_main failed to produce); a model-neutral change leaves all of
# them byte-identical.  About 15-20 s in total on 4 CPUs for the
# thirteen checked-in grids.

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

# run_grid FIGURE OUT: write FIGURE's report to OUT.
run_grid() {
    "$sweep_main" --figure "$1" --jobs "$jobs" --quiet --json "$2" \
        >"$2.log" 2>&1
}

# report FIGURE VERDICT START_NS: print one result line.
report() {
    local ms=$((($(date +%s%N) - $3) / 1000000))
    printf '%-9s %-9s %3d.%d s\n' "$1" "$2" $((ms / 1000)) \
        $((ms % 1000 / 100))
}

for grid in "$repo_root"/BENCH_*.json; do
    f="${grid##*/BENCH_}"
    f="${f%.json}"
    start=$(date +%s%N)
    if run_grid "$f" "$tmp/BENCH_$f.json" &&
        cmp -s "$tmp/BENCH_$f.json" "$grid"; then
        verdict="identical"
    else
        verdict="DIFFERS"
        differ="$differ $f"
    fi
    report "$f" "$verdict" "$start"
done

if [ -n "$differ" ]; then
    echo "grids that differ:$differ" >&2
    exit 1
fi
echo "all grids byte-identical"
