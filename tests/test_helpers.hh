/**
 * @file
 * Shared test fixtures: a small machine configuration that keeps tests
 * fast, helpers for driving transactions by hand, a whole-metric-list
 * equality check, a grid filter, and a loader and a replay check for
 * the checked-in BENCH_*.json reports.
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

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.hh"
#include "core/ssp_system.hh"
#include "sim/metrics.hh"
#include "sim/report.hh"
#include "sweep/sweep_runner.hh"

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
 * Require @p a and @p b to agree on every metric of the metric list
 * (sim/metrics.hh) and on their design and workload names.
 */
inline void
expectSameMetrics(const sweep::CellResult &a, const sweep::CellResult &b)
{
    EXPECT_EQ(a.run.backend, b.run.backend);
    EXPECT_EQ(a.run.workload, b.run.workload);
    for (const Metric &metric : metricList()) {
        EXPECT_EQ(metricValue(metric, a).dump(),
                  metricValue(metric, b).dump())
            << metric.name;
    }
}

/** As above, for two runs outside a sweep cell. */
inline void
expectSameMetrics(const RunResult &a, const RunResult &b)
{
    sweep::CellResult ca;
    sweep::CellResult cb;
    ca.run = a;
    cb.run = b;
    expectSameMetrics(ca, cb);
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

/**
 * The cells of @p figure's grid (options @p opts) that @p keep accepts,
 * the way the bench/perf workloads take their subsets.  Filtering after
 * the build keeps every cell's full-grid seed.
 */
template <typename Keep>
std::vector<sweep::SweepCell>
gridCells(const std::string &figure, Keep keep,
          const sweep::SweepGridOptions &opts = {})
{
    std::vector<sweep::SweepCell> out;
    for (sweep::SweepCell &cell : sweep::buildFigureGrid(figure, opts)) {
        if (keep(cell))
            out.push_back(std::move(cell));
    }
    return out;
}

/**
 * Rerun @p cells of @p figure and require every cell's report entry to
 * equal, byte for byte, the same-label entry of the checked-in
 * BENCH_<figure>.json.  Cells run on @p jobs workers, 0 meaning one
 * per host CPU; results are bit-identical for any worker count.
 * Returns the results so a caller can assert more about them.
 */
inline std::vector<sweep::CellResult>
expectReplaysCheckedIn(const std::string &figure,
                       const std::vector<sweep::SweepCell> &cells,
                       unsigned jobs = 0)
{
    const Json checked_in = loadCheckedIn("BENCH_" + figure + ".json");
    std::map<std::string, const Json *> want;
    for (std::size_t i = 0; i < checked_in["cells"].size(); ++i) {
        const Json &c = checked_in["cells"].at(i);
        want[c["label"].asString()] = &c;
    }
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
    std::vector<sweep::CellResult> results = sweep::runSweep(cells, jobs);
    const Json report = sweep::sweepReport(figure, results);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Json &got = report["cells"].at(i);
        const std::string label = got["label"].asString();
        EXPECT_TRUE(results[i].ok) << label << ": " << results[i].error;
        const auto it = want.find(label);
        if (it == want.end()) {
            ADD_FAILURE() << label << " is not in BENCH_" << figure
                          << ".json";
            continue;
        }
        EXPECT_EQ(got.dump(2), it->second->dump(2)) << label;
    }
    return results;
}

} // namespace ssp::test

#endif // SSP_TESTS_TEST_HELPERS_HH
