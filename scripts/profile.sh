#!/usr/bin/env bash
#
# Host profile of one bench/perf workload, for machines without perf(1).
#
# Usage: scripts/profile.sh WORKLOAD [PASSES]
#
# Builds a -g (otherwise Release) ssp_perf from bench/perf into
# build-prof/ (override with PROFILE_BUILD_DIR), runs PASSES passes
# (default 4) of WORKLOAD under the LD_PRELOAD SIGPROF sampler in
# scripts/sigprof_sampler.c (one sample per millisecond of CPU time),
# and prints the top 30 rows of per-function, per-inline-frame and
# per-shared-object sample tables (scripts/profile_report.py).  Samples
# in libc are attributed to their caller.  The raw samples stay in
# build-prof/profile-WORKLOAD.txt, next to the run's JSON output.

set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 WORKLOAD [PASSES]" >&2
    exit 2
fi
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
workload="$1"
passes="${2:-4}"
case "$passes" in
    '' | *[!0-9]*) echo "error: PASSES must be a positive integer" >&2; exit 2 ;;
esac
[ "$passes" -ge 1 ] || { echo "error: PASSES must be at least 1" >&2; exit 2; }
build="${PROFILE_BUILD_DIR:-$repo_root/build-prof}"

echo "== build ssp_perf (-g) into $build ==" >&2
cmake -S "$repo_root/bench/perf" -B "$build" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-g >&2
cmake --build "$build" --target ssp_perf -j "$(nproc)" >&2
cc -O2 -Wall -Werror -shared -fPIC -o "$build/sigprof_sampler.so" \
    "$repo_root/scripts/sigprof_sampler.c"

samples="$build/profile-$workload.txt"
rm -f "$samples" "$samples.maps"
echo "== $workload, $passes pass(es), sampled ==" >&2
SSP_PROF_OUT="$samples" LD_PRELOAD="$build/sigprof_sampler.so" \
    "$build/ssp_perf" --workload "$workload" --passes "$passes" \
    >"$build/profile-$workload.json"
python3 "$repo_root/scripts/profile_report.py" "$build/ssp_perf" "$samples"
