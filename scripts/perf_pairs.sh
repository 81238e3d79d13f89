#!/usr/bin/env bash
#
# Paired host-performance comparison against an earlier commit.
#
# Usage: scripts/perf_pairs.sh PARENT_REV [WORKLOAD] [PAIRS]
#
# Builds PARENT_REV's ssp_perf from a `git archive` copy and the working
# tree's ssp_perf, then runs bench/perf/run.py PAIRS times (default 10)
# for each side, alternating which side runs first, and prints
# `run.py compare parent.json change.json`.  WORKLOAD is one
# BENCHMARK.json workload, or "all" (the default).  Each side is run and
# gated by its own tree's run.py and checked-in grids.
#
# Everything lands in build-pairs/ (override with PERF_PAIRS_DIR); the
# results files are started afresh on every call.  With "all", exits
# with compare's status: 1 on a regression, 2 when a workload has too
# few pairs.  With one workload, compare still reports the other four
# as having no pairs, so the status comes from that workload's own
# block of the report instead: 1 on a regression, else 2 on an
# unresolved metric or too few pairs, else 0.

set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
    echo "usage: $0 PARENT_REV [WORKLOAD|all] [PAIRS]" >&2
    exit 2
fi
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
rev="$(git -C "$repo_root" rev-parse --verify "$1^{commit}")"
workload="${2:-all}"
pairs="${3:-10}"
case "$pairs" in
    '' | *[!0-9]*) echo "error: PAIRS must be a positive integer" >&2; exit 2 ;;
esac
[ "$pairs" -ge 1 ] || { echo "error: PAIRS must be at least 1" >&2; exit 2; }
out="${PERF_PAIRS_DIR:-$repo_root/build-pairs}"
parent_src="$out/${rev:0:12}/src"
parent_build="$out/${rev:0:12}/build"
change_build="$out/change"

if [ ! -f "$parent_src/BENCHMARK.json" ]; then
    echo "== extract ${rev:0:12} ==" >&2
    rm -rf "$parent_src"
    mkdir -p "$parent_src"
    git -C "$repo_root" archive "$rev" | tar -x -C "$parent_src"
fi
for side in "$parent_src:$parent_build" "$repo_root:$change_build"; do
    echo "== build ssp_perf from ${side%%:*} ==" >&2
    cmake -S "${side%%:*}/bench/perf" -B "${side#*:}" \
        -DCMAKE_BUILD_TYPE=Release >&2
    cmake --build "${side#*:}" --target ssp_perf -j "$(nproc)" >&2
done

rm -f "$out/parent.json" "$out/change.json"
workload_args=()
[ "$workload" = all ] || workload_args=(--workload "$workload")
run_side() { # tree build results
    # A failed cell is recorded in the results and counted by compare.
    python3 "$1/bench/perf/run.py" --binary "$2/ssp_perf" --out "$3" \
        "${workload_args[@]}" >/dev/null ||
        echo "warning: a run of $2/ssp_perf had failed cells" >&2
}
for ((i = 0; i < pairs; i++)); do
    echo "== pair $((i + 1))/$pairs ==" >&2
    if [ $((i % 2)) = 0 ]; then
        run_side "$parent_src" "$parent_build" "$out/parent.json"
        run_side "$repo_root" "$change_build" "$out/change.json"
    else
        run_side "$repo_root" "$change_build" "$out/change.json"
        run_side "$parent_src" "$parent_build" "$out/parent.json"
    fi
done
status=0
python3 "$repo_root/bench/perf/run.py" compare "$out/parent.json" \
    "$out/change.json" >"$out/compare.txt" || status=$?
cat "$out/compare.txt"
if [ "$workload" != all ]; then
    # The block is the "WORKLOAD: ..." line and its indented rows.
    block="$(awk -v w="$workload:" '
        $1 == w { inside = 1; print; next }
        inside && /^  / { print; next }
        { inside = 0 }' "$out/compare.txt")"
    if [ -z "$block" ]; then
        echo "error: compare printed no block for $workload" >&2
        status=2
    elif grep -q ' regression (bound' <<<"$block"; then
        status=1
    elif grep -qE ' unresolved \(bound|every metric unresolved' \
        <<<"$block"; then
        status=2
    else
        status=0
    fi
fi
exit "$status"
