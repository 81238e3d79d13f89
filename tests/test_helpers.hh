/**
 * @file
 * Shared test fixtures: a small machine configuration that keeps tests
 * fast, helpers for driving transactions by hand, and a loader for the
 * checked-in BENCH_*.json reports.
 *
 * Include convention: test sources include this header as
 * "tests/test_helpers.hh", i.e. relative to the repository root.  The
 * build adds both the repo root and src/ to the include path (see
 * target_include_directories in CMakeLists.txt), so src-internal
 * headers are spelled "common/types.hh" while test/bench headers are
 * spelled "tests/..." / "bench/...".  Do not rely on the compiler's
 * "relative to the including file" fallback — it breaks once sources
 * are compiled from a build directory.
 */

#ifndef SSP_TESTS_TEST_HELPERS_HH
#define SSP_TESTS_TEST_HELPERS_HH

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/config.hh"
#include "core/ssp_system.hh"
#include "sim/report.hh"

namespace ssp::test
{

/** A small, fast configuration (tiny heap, small TLB-friendly caches). */
inline SspConfig
smallConfig(unsigned cores = 1)
{
    SspConfig cfg;
    cfg.numCores = cores;
    cfg.heapPages = 512;
    cfg.shadowPoolPages = 600;
    cfg.journalPages = 64;
    cfg.logPages = 512;
    cfg.dramPages = 64;
    cfg.checkpointThresholdBytes = 16 * 1024;
    return cfg;
}

/** Write a uint64 at a persistent address inside a one-shot tx. */
inline void
txWrite64(AtomicityBackend &be, CoreId core, Addr addr, std::uint64_t v)
{
    be.begin(core);
    be.store(core, addr, &v, sizeof(v));
    be.commit(core);
}

/** Untimed functional read of a uint64. */
inline std::uint64_t
raw64(AtomicityBackend &be, Addr addr)
{
    std::uint64_t v = 0;
    be.loadRaw(addr, &v, sizeof(v));
    return v;
}

/** Timed read of a uint64. */
inline std::uint64_t
timed64(AtomicityBackend &be, CoreId core, Addr addr)
{
    std::uint64_t v = 0;
    be.load(core, addr, &v, sizeof(v));
    return v;
}

/**
 * Parse the checked-in report @p name (e.g. "BENCH_scale.json") from
 * the source tree.  SSP_SOURCE_DIR is defined for every test suite, so
 * this works from any ctest working directory.
 */
inline Json
loadCheckedIn(const std::string &name)
{
    std::ifstream in(std::string(SSP_SOURCE_DIR) + "/" + name);
    if (!in)
        throw std::runtime_error("checked-in " + name + " missing");
    std::stringstream buf;
    buf << in.rdbuf();
    return Json::parse(buf.str());
}

} // namespace ssp::test

#endif // SSP_TESTS_TEST_HELPERS_HH
