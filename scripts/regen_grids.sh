#!/usr/bin/env bash
#
# Regenerate every checked-in BENCH_<figure>.json grid and compare it
# byte for byte with the tree's copy; optionally compare the grids that
# are not checked in against a parent build.
#
# Usage: scripts/regen_grids.sh [SWEEP_MAIN] [JOBS] [PARENT_SWEEP_MAIN]
#        (default SWEEP_MAIN: build/sweep_main; JOBS: one per CPU)
#
# Each BENCH_F.json in the repo root is regenerated by
# `sweep_main --figure F --jobs JOBS --json` into a temporary directory
# that is removed on exit.  Given PARENT_SWEEP_MAIN (a sweep_main built
# from another revision), every grid of `SWEEP_MAIN --list` without a
# checked-in BENCH_F.json (fig8, fig9, table3, table45) is also run by
# both binaries and their reports compared.  Prints one line per grid
# and exits 1 naming every grid that differs (or that a sweep_main
# failed to produce); a model-neutral change leaves all of them
# byte-identical.  About 10-15 s in total on 4 CPUs for the nine
# checked-in grids.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
sweep_main="${1:-$repo_root/build/sweep_main}"
jobs="${2:-$(nproc 2>/dev/null || echo 2)}"
parent="${3:-}"

for bin in "$sweep_main" ${parent:+"$parent"}; do
    if [ ! -x "$bin" ]; then
        echo "error: $bin is not an executable (build it first)" >&2
        exit 2
    fi
done
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

differ=""

# run_grid BIN FIGURE OUT: write FIGURE's report to OUT.
run_grid() {
    "$1" --figure "$2" --jobs "$jobs" --quiet --json "$3" \
        >"$3.log" 2>&1
}

# report FIGURE VERDICT START_NS: print one result line.
report() {
    local ms=$((($(date +%s%N) - $3) / 1000000))
    printf '%-9s %-21s %3d.%d s\n' "$1" "$2" $((ms / 1000)) \
        $((ms % 1000 / 100))
}

for grid in "$repo_root"/BENCH_*.json; do
    f="${grid##*/BENCH_}"
    f="${f%.json}"
    start=$(date +%s%N)
    if run_grid "$sweep_main" "$f" "$tmp/BENCH_$f.json" &&
        cmp -s "$tmp/BENCH_$f.json" "$grid"; then
        verdict="identical"
    else
        verdict="DIFFERS"
        differ="$differ $f"
    fi
    report "$f" "$verdict" "$start"
done

if [ -n "$parent" ]; then
    for f in $("$sweep_main" --list); do
        [ -e "$repo_root/BENCH_$f.json" ] && continue
        start=$(date +%s%N)
        if run_grid "$sweep_main" "$f" "$tmp/new_$f.json" &&
            run_grid "$parent" "$f" "$tmp/parent_$f.json" &&
            cmp -s "$tmp/new_$f.json" "$tmp/parent_$f.json"; then
            verdict="identical"
        else
            verdict="DIFFERS"
            differ="$differ $f"
        fi
        report "$f" "$verdict (vs parent)" "$start"
    done
fi

if [ -n "$differ" ]; then
    echo "grids that differ:$differ" >&2
    exit 1
fi
echo "all grids byte-identical"
