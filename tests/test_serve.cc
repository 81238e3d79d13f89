/**
 * @file
 * Request-serving subsystem tests: histogram bucket math and exact-rank
 * percentiles, the Poisson arrival process's determinism and long-run
 * rate, and the open-loop server's accounting invariants and overload
 * behavior.
 */

#include <vector>

#include <gtest/gtest.h>

#include "serve/arrival.hh"
#include "serve/latency_histogram.hh"
#include "serve/server.hh"
#include "sim/system_builder.hh"
#include "tests/test_helpers.hh"

namespace ssp::serve::test
{
namespace
{

/** A small serving experiment on the tiny test machine. */
Experiment
smallServeExperiment(unsigned cores)
{
    WorkloadScale scale;
    scale.keySpace = 256;
    scale.spsElements = 1024;
    scale.seed = 7;
    return buildExperiment(BackendKind::Ssp, WorkloadKind::Sps,
                           ssp::test::smallConfig(cores), scale);
}

// ---- latency histogram -----------------------------------------------------

TEST(LatencyHistogram, UnitRangeValuesAreRecordedExactly)
{
    for (std::uint64_t v = 0; v < 64; ++v) {
        EXPECT_EQ(LatencyHistogram::bucketIndex(v), v);
        EXPECT_EQ(LatencyHistogram::bucketLowerBound(
                      LatencyHistogram::bucketIndex(v)),
                  v);
    }
}

TEST(LatencyHistogram, BucketBoundsRoundTripAndAreMonotone)
{
    // Every bucket's lower bound maps back to that bucket, and bounds
    // strictly increase — together: buckets tile the value range.
    std::uint64_t prev = 0;
    for (unsigned i = 0; i < LatencyHistogram::kBucketCount; ++i) {
        const std::uint64_t lb = LatencyHistogram::bucketLowerBound(i);
        EXPECT_EQ(LatencyHistogram::bucketIndex(lb), i);
        if (i > 0) {
            EXPECT_GT(lb, prev);
        }
        prev = lb;
    }
}

TEST(LatencyHistogram, QuantizationErrorIsBoundedPerOctave)
{
    // Above the unit range a value maps to a bucket whose lower bound is
    // within 1/2^kSubBucketBits (~3.1%) below it.
    const std::vector<std::uint64_t> values = {
        64, 65, 96, 1000, 123456, std::uint64_t{1} << 40,
        (std::uint64_t{1} << 40) + 12345};
    for (std::uint64_t v : values) {
        const std::uint64_t lb = LatencyHistogram::bucketLowerBound(
            LatencyHistogram::bucketIndex(v));
        EXPECT_LE(lb, v);
        EXPECT_LT(v - lb, v / LatencyHistogram::kSubBuckets + 1);
    }
}

TEST(LatencyHistogram, ExactRankPercentilesOnSmallSamples)
{
    LatencyHistogram h;
    EXPECT_EQ(h.percentile(0.5), 0u); // empty
    for (std::uint64_t v : {10ull, 20ull, 30ull, 40ull})
        h.record(v);
    ASSERT_EQ(h.count(), 4u);
    // Exact rank: p(q) is the ceil(q * 4)-th smallest sample.
    EXPECT_EQ(h.percentile(0.25), 10u);
    EXPECT_EQ(h.percentile(0.50), 20u);
    EXPECT_EQ(h.percentile(0.51), 30u);
    EXPECT_EQ(h.percentile(0.75), 30u);
    EXPECT_EQ(h.percentile(0.99), 40u);
    EXPECT_EQ(h.percentile(1.0), 40u);
    EXPECT_EQ(h.maxValue(), 40u);
}

TEST(LatencyHistogram, MergeEqualsCombinedRecording)
{
    LatencyHistogram a;
    LatencyHistogram b;
    LatencyHistogram combined;
    for (std::uint64_t v = 1; v < 400; v += 7) {
        (v % 2 == 0 ? a : b).record(v * v);
        combined.record(v * v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_EQ(a.maxValue(), combined.maxValue());
    for (double q : {0.1, 0.5, 0.9, 0.99, 0.999})
        EXPECT_EQ(a.percentile(q), combined.percentile(q));
}

// ---- arrival processes -----------------------------------------------------

TEST(ArrivalProcess, SequencesAreDeterministicPerSeed)
{
    ArrivalProcess a(100.0, 42);
    ArrivalProcess b(100.0, 42);
    ArrivalProcess c(100.0, 43);
    bool any_differs = false;
    Cycles prev = 0;
    for (int i = 0; i < 1000; ++i) {
        const Cycles t = a.next();
        EXPECT_EQ(t, b.next());
        any_differs |= (t != c.next());
        // Arrival times never run backwards.
        EXPECT_GE(t, prev);
        prev = t;
    }
    EXPECT_TRUE(any_differs);
}

TEST(ArrivalProcess, LongRunRateMatchesTheConfiguredMean)
{
    constexpr int kDraws = 20000;
    ArrivalProcess p(100.0, 1234);
    Cycles last = 0;
    for (int i = 0; i < kDraws; ++i)
        last = p.next();
    const double mean = static_cast<double>(last) / kDraws;
    EXPECT_GT(mean, 80.0);
    EXPECT_LT(mean, 125.0);
}

// ---- open-loop server ------------------------------------------------------

TEST(ServeExperiment, EveryRequestIsAckedOrRejected)
{
    Experiment exp = smallServeExperiment(2);
    ServeParams params;
    params.offeredLoad = 0.9;
    const RunResult res = runServeExperiment(exp, 300, 2, params);
    EXPECT_EQ(res.committedTxs + res.rejectedTxs, 300u);
    EXPECT_EQ(res.offeredLoad, 0.9);
    EXPECT_GT(res.cycles, 0u);
    EXPECT_GT(res.p50Cycles, 0u);
    EXPECT_GE(res.p99Cycles, res.p50Cycles);
    EXPECT_GE(res.p999Cycles, res.p99Cycles);
}

TEST(ServeExperiment, RunsAreDeterministic)
{
    ServeParams params;
    params.offeredLoad = 1.1;
    Experiment a = smallServeExperiment(2);
    Experiment b = smallServeExperiment(2);
    const RunResult ra = runServeExperiment(a, 300, 2, params);
    const RunResult rb = runServeExperiment(b, 300, 2, params);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.committedTxs, rb.committedTxs);
    EXPECT_EQ(ra.rejectedTxs, rb.rejectedTxs);
    EXPECT_EQ(ra.p50Cycles, rb.p50Cycles);
    EXPECT_EQ(ra.p99Cycles, rb.p99Cycles);
    EXPECT_EQ(ra.p999Cycles, rb.p999Cycles);
    EXPECT_EQ(ra.meanQueueDepth, rb.meanQueueDepth);
    EXPECT_EQ(ra.nvramWrites, rb.nvramWrites);
}

TEST(ServeExperiment, OverloadRaisesTailLatencyAndQueueDepth)
{
    ServeParams light;
    light.offeredLoad = 0.3;
    ServeParams heavy;
    heavy.offeredLoad = 1.5;
    Experiment a = smallServeExperiment(2);
    Experiment b = smallServeExperiment(2);
    const RunResult lo = runServeExperiment(a, 400, 2, light);
    const RunResult hi = runServeExperiment(b, 400, 2, heavy);
    // Past saturation the queues fill: waiting dominates latency, so
    // the tail and the time-averaged depth must both rise.
    EXPECT_GT(hi.p99Cycles, lo.p99Cycles);
    EXPECT_GT(hi.meanQueueDepth, lo.meanQueueDepth);
}

TEST(ServeExperiment, AdmissionControlShedsAtFullQueues)
{
    ServeParams params;
    params.offeredLoad = 4.0; // far past capacity: 64-deep queues fill
    Experiment exp = smallServeExperiment(2);
    const RunResult res = runServeExperiment(exp, 300, 2, params);
    EXPECT_GT(res.rejectedTxs, 0u);
    EXPECT_EQ(res.committedTxs + res.rejectedTxs, 300u);
}

} // namespace
} // namespace ssp::serve::test
