/**
 * @file
 * Parameterized configuration sweeps: the SSP correctness properties
 * must hold across TLB sizes, cache geometries, checkpoint thresholds
 * and core counts.
 * These are the property-style tests that catch interactions no single
 * fixed configuration would.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hh"
#include "core/recovery.hh"
#include "core/ssp_system.hh"
#include "sim/driver.hh"
#include "sim/system_builder.hh"
#include "tests/test_helpers.hh"

using namespace ssp;
using namespace ssp::test;

namespace
{

/** One swept configuration. */
struct SweepPoint
{
    unsigned tlbEntries;
    unsigned cores;
    std::uint64_t checkpointThreshold;
};

std::string
sweepName(const ::testing::TestParamInfo<SweepPoint> &info)
{
    const SweepPoint &p = info.param;
    return "tlb" + std::to_string(p.tlbEntries) + "_c" +
           std::to_string(p.cores) + "_ckpt" +
           std::to_string(p.checkpointThreshold);
}

SspConfig
configFor(const SweepPoint &p)
{
    SspConfig cfg = smallConfig(p.cores);
    cfg.tlbEntries = p.tlbEntries;
    cfg.checkpointThresholdBytes = p.checkpointThreshold;
    cfg.shadowPoolPages =
        p.cores * p.tlbEntries + SspConfig::kSspCacheOverprovision + 256;
    return cfg;
}

class SspSweepTest : public ::testing::TestWithParam<SweepPoint>
{
};

TEST_P(SspSweepTest, OracleChurnCrashRecover)
{
    SspSystem sys(configFor(GetParam()));
    const unsigned cores = GetParam().cores;
    Rng rng(GetParam().tlbEntries * 131 + 1);
    std::map<Addr, std::uint64_t> oracle;

    for (unsigned round = 0; round < 3; ++round) {
        // A burst of committed transactions across all cores.
        for (unsigned t = 0; t < 40; ++t) {
            const CoreId core = t % cores;
            sys.begin(core);
            std::vector<std::pair<Addr, std::uint64_t>> pending;
            const unsigned writes = 1 + rng.nextBounded(6);
            for (unsigned i = 0; i < writes; ++i) {
                // Cores write disjoint page ranges (lock-based isolation
                // at the data-structure level, as the paper assumes).
                const Addr addr =
                    pageBase(1 + core * 60 + rng.nextBounded(50)) +
                    rng.nextBounded(64) * kLineSize;
                const std::uint64_t v = rng.next();
                sys.store(core, addr, &v, sizeof(v));
                pending.emplace_back(addr, v);
            }
            sys.commit(core);
            for (auto &[a, v] : pending)
                oracle[a] = v;
        }
        // Torn transaction on core 0, then power failure.
        sys.begin(0);
        std::uint64_t junk = rng.next();
        sys.store(0, pageBase(1) + 8, &junk, sizeof(junk));
        sys.crash();
        sys.recover();

        RecoveryReport report = verifyRecoveredState(sys);
        ASSERT_TRUE(report.ok)
            << (report.violations.empty() ? std::string("?")
                                          : report.violations[0]);
        for (auto &[a, v] : oracle) {
            std::uint64_t got = 0;
            sys.loadRaw(a, &got, sizeof(got));
            ASSERT_EQ(got, v) << "round " << round;
        }
    }
}

std::vector<SweepPoint>
sweepPoints()
{
    std::vector<SweepPoint> points;
    for (unsigned tlb : {8u, 16u, 64u}) {
        for (unsigned cores : {1u, 2u})
            points.push_back({tlb, cores, 16384});
    }
    // Checkpoint-heavy corners: a tiny threshold at both TLB extremes.
    points.push_back({64, 1, 2048});
    points.push_back({8, 1, 2048});
    return points;
}

INSTANTIATE_TEST_SUITE_P(Configs, SspSweepTest,
                         ::testing::ValuesIn(sweepPoints()), sweepName);

// ---- TLB-size monotonicity property ---------------------------------------

TEST(SweepProperties, SmallerTlbMeansMoreConsolidation)
{
    std::uint64_t prev = ~std::uint64_t{0};
    for (unsigned tlb : {8u, 32u, 128u}) {
        SspConfig cfg = smallConfig();
        cfg.tlbEntries = tlb;
        cfg.shadowPoolPages =
            tlb + SspConfig::kSspCacheOverprovision + 256;
        SspSystem sys(cfg);
        // Round-robin writes over 160 pages.
        for (unsigned i = 0; i < 800; ++i)
            txWrite64(sys, 0, pageBase(1 + (i % 160)) + 8, i);
        const std::uint64_t copies = sys.machine().bus().nvramWrites(
            WriteCategory::Consolidation);
        EXPECT_LE(copies, prev) << "tlb=" << tlb;
        prev = copies;
    }
}

TEST(SweepProperties, CheckpointThresholdBoundsJournal)
{
    for (std::uint64_t threshold : {2048ull, 8192ull, 65536ull}) {
        SspConfig cfg = smallConfig();
        cfg.checkpointThresholdBytes = threshold;
        SspSystem sys(cfg);
        for (unsigned i = 0; i < 2000; ++i)
            txWrite64(sys, 0, pageBase(1 + (i % 30)) + (i % 64) * 64, i);
        EXPECT_LE(sys.controller().journal().appendedBytes(),
                  threshold + 4096)
            << "journal did not stay near its threshold";
    }
}

TEST(SweepProperties, ThroughputScalesWithCores)
{
    // Embarrassingly parallel disjoint pages: 4 cores must complete the
    // same total work in less simulated time than 1 core.
    auto run = [](unsigned cores) {
        SspConfig cfg = smallConfig(cores);
        cfg.shadowPoolPages = cores * cfg.tlbEntries +
                              SspConfig::kSspCacheOverprovision + 256;
        SspSystem sys(cfg);
        for (unsigned i = 0; i < 400; ++i) {
            const CoreId c = i % cores;
            txWrite64(sys, c, pageBase(1 + c * 100 + (i % 50)) + 8, i);
        }
        return sys.machine().maxClock();
    };
    EXPECT_LT(run(4), run(1));
}

TEST(SweepProperties, NvramLatencyMultiplierMonotone)
{
    double prev_tps = 1e18;
    for (double mult : {1.0, 4.0, 8.0}) {
        SspConfig cfg = smallConfig();
        cfg.nvramLatencyMultiplier = mult;
        cfg.heapPages = 2048;
        cfg.shadowPoolPages = 2048;
        WorkloadScale scale;
        scale.keySpace = 256;
        auto exp = buildExperiment(BackendKind::Ssp,
                                   WorkloadKind::HashRand, cfg, scale);
        RunResult res = runExperiment(exp, 300, 1);
        EXPECT_LT(res.tps(), prev_tps) << "mult=" << mult;
        prev_tps = res.tps();
    }
}

TEST(SweepProperties, FixedSspCacheLatencyMonotone)
{
    Cycles prev_cycles = 0;
    for (Cycles lat : {20u, 100u, 180u}) {
        SspConfig cfg = smallConfig();
        cfg.sspCacheFixedLatency = lat;
        SspSystem sys(cfg);
        // TLB-thrashing access pattern maximizes SSP-cache accesses.
        for (unsigned i = 0; i < 500; ++i)
            txWrite64(sys, 0, pageBase(1 + (i % 150)) + 8, i);
        EXPECT_GE(sys.machine().maxClock(), prev_cycles);
        prev_cycles = sys.machine().maxClock();
    }
}

} // namespace
