#!/usr/bin/env bash
#
# Full local CI pipeline: configure, build and run the test suite.  The
# suite includes the checked-in grid gate (test_grid_replay), so this
# writes nothing outside the build directory.
#
# Usage: scripts/check.sh [--lint] [--tsan] [build-dir]  (default: build)
#
#   --lint   also run clang-format --dry-run --Werror over every
#            tracked C++ source (mirrors the CI format-lint job).
#   --tsan   configure a separate Debug build with -fsanitize=thread
#            and run ctest without the "replay" label (mirrors the CI
#            gcc-debug-tsan leg).

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

run_lint=0
run_tsan=0
while [ $# -gt 0 ]; do
    case "$1" in
        --lint) run_lint=1; shift ;;
        --tsan) run_tsan=1; shift ;;
        *) break ;;
    esac
done
if [ "$run_tsan" = 1 ]; then
    build_dir="${1:-$repo_root/build-tsan}"
else
    build_dir="${1:-$repo_root/build}"
fi
jobs="$(nproc 2>/dev/null || echo 2)"

if [ "$run_lint" = 1 ]; then
    echo "== clang-format lint =="
    if ! command -v clang-format >/dev/null; then
        echo "error: --lint needs clang-format on PATH" >&2
        exit 1
    fi
    (cd "$repo_root" &&
        git ls-files '*.cc' '*.hh' | xargs clang-format --dry-run --Werror)
fi

echo "== configure =="
if [ "$run_tsan" = 1 ]; then
    cmake -B "$build_dir" -S "$repo_root" \
        -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread"
else
    cmake -B "$build_dir" -S "$repo_root"
fi

echo "== build (-j$jobs) =="
cmake --build "$build_dir" -j "$jobs"

echo "== ctest =="
if [ "$run_tsan" = 1 ]; then
    # Any TSan report fails the run.  This race-checks the runSweep
    # --jobs worker pool, the only host parallelism: the suite's
    # *DeterministicAcrossJobs tests run multi-worker sweeps.
    TSAN_OPTIONS=halt_on_error=1 \
        ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" \
        -LE replay
    echo "OK (tsan)"
    exit 0
fi
ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"

echo "OK"
