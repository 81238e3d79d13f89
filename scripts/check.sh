#!/usr/bin/env bash
#
# Full local CI pipeline: configure, build and run the test suite.  The
# suite includes the checked-in grid gate (test_grid_replay), so this
# writes nothing outside the build directory.
#
# Usage: scripts/check.sh [--lint] [--tsan | --asan] [build-dir]
#        (default build-dir: build, build-tsan or build-asan)
#
#   --lint   also run clang-format --dry-run --Werror over every
#            tracked C++ source (mirrors the CI format-lint job).
#   --tsan   configure a separate Debug build with -fsanitize=thread
#            and run ctest without the "replay" label (mirrors the CI
#            gcc-debug-tsan leg).
#   --asan   the same with -fsanitize=address,undefined
#            -fno-sanitize-recover=all (mirrors the CI
#            gcc-debug-asan-ubsan leg).  Debug builds also run the
#            ssp_assert_dbg cross-checks, such as the sharer index
#            against the caches' tags after every setup phase.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

run_lint=0
sanitizer=""
while [ $# -gt 0 ]; do
    case "$1" in
        --lint) run_lint=1; shift ;;
        --tsan | --asan)
            if [ -n "$sanitizer" ]; then
                echo "error: --tsan and --asan are separate builds" >&2
                exit 2
            fi
            sanitizer="${1#--}"; shift ;;
        *) break ;;
    esac
done
case "$sanitizer" in
    tsan) sanitize_flags="-fsanitize=thread" ;;
    asan) sanitize_flags="-fsanitize=address,undefined -fno-sanitize-recover=all" ;;
esac
if [ -n "$sanitizer" ]; then
    build_dir="${1:-$repo_root/build-$sanitizer}"
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
if [ -n "$sanitizer" ]; then
    cmake -B "$build_dir" -S "$repo_root" \
        -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS="$sanitize_flags"
else
    cmake -B "$build_dir" -S "$repo_root"
fi

echo "== build (-j$jobs) =="
cmake --build "$build_dir" -j "$jobs"

echo "== ctest =="
if [ -n "$sanitizer" ]; then
    # Any sanitizer report (leaks and races included) fails the run.
    # TSan race-checks the runSweep --jobs worker pool, the only host
    # parallelism: the suite's *DeterministicAcrossJobs tests run
    # multi-worker sweeps.  Both skip the grid replays, as CI does.
    ASAN_OPTIONS=halt_on_error=1:detect_leaks=1 \
        UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
        TSAN_OPTIONS=halt_on_error=1 \
        ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" \
        -LE replay
    echo "OK ($sanitizer)"
    exit 0
fi
ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"

echo "OK"
