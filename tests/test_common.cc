/**
 * @file
 * Unit tests for the common substrate: bitmaps, address arithmetic,
 * RNG/distributions, statistics and error reporting.
 */

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>

#include "common/bitmap64.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

using namespace ssp;

namespace
{

TEST(Bitmap64, StartsEmpty)
{
    Bitmap64 b;
    EXPECT_TRUE(b.none());
    EXPECT_EQ(b.popcount(), 0u);
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_FALSE(b.test(i));
}

TEST(Bitmap64, SetResetFlip)
{
    Bitmap64 b;
    b.set(5);
    EXPECT_TRUE(b.test(5));
    b.flip(5);
    EXPECT_FALSE(b.test(5));
    b.flip(5);
    EXPECT_TRUE(b.test(5));
    b.reset(5);
    EXPECT_TRUE(b.none());
}

TEST(Bitmap64, XorIsCommitSemantics)
{
    Bitmap64 committed(0b1010);
    Bitmap64 updated(0b0110);
    Bitmap64 after = committed ^ updated;
    EXPECT_EQ(after.raw(), 0b1100u);
    // XOR twice restores (abort-equivalence at the bitmap level).
    EXPECT_EQ((after ^ updated).raw(), committed.raw());
}

TEST(Bitmap64, PopcountAndLowest)
{
    Bitmap64 b;
    b.set(3);
    b.set(17);
    b.set(63);
    EXPECT_EQ(b.popcount(), 3u);
    EXPECT_EQ(b.lowestSet(), 3u);
}

TEST(Bitmap64, BoundaryBits)
{
    Bitmap64 b;
    b.set(0);
    b.set(63);
    EXPECT_TRUE(b.test(0));
    EXPECT_TRUE(b.test(63));
    EXPECT_EQ(b.popcount(), 2u);
    EXPECT_EQ((~b).popcount(), 62u);
}

TEST(Bitmap64, ToStringRoundTrip)
{
    Bitmap64 b;
    b.set(1);
    std::string s = b.toString();
    EXPECT_EQ(s.size(), 64u);
    EXPECT_EQ(s[1], '1');
    EXPECT_EQ(s[0], '0');
}

class AddressMathTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>>
{
};

TEST_P(AddressMathTest, DecomposeRecompose)
{
    const auto [page, line] = GetParam();
    const Addr addr = pageBase(page) + line * kLineSize + 7;
    EXPECT_EQ(pageOf(addr), page);
    EXPECT_EQ(lineIndexInPage(addr), line);
    EXPECT_EQ(lineOffset(addr), 7u);
    EXPECT_EQ(lineBase(addr), lineAddr(page, line));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AddressMathTest,
    ::testing::Combine(::testing::Values(0ull, 1ull, 255ull, 1u << 20),
                       ::testing::Values(0u, 1u, 31u, 63u)));

TEST(AddressMath, FitsPredicates)
{
    EXPECT_TRUE(fitsInLine(0, 64));
    EXPECT_FALSE(fitsInLine(1, 64));
    EXPECT_TRUE(fitsInLine(63, 1));
    EXPECT_FALSE(fitsInLine(63, 2));
    EXPECT_TRUE(fitsInPage(0, kPageSize));
    EXPECT_FALSE(fitsInPage(8, kPageSize));
    EXPECT_FALSE(fitsInLine(0, 0));
}

// ---- error reporting ----------------------------------------------------

/** what() of the @p Ex that @p fn throws ("" when it throws none). */
template <typename Ex, typename Fn>
std::string
whatOf(Fn fn)
{
    try {
        fn();
    } catch (const Ex &e) {
        return e.what();
    }
    return "";
}

TEST(Logging, ErrorsThrowWithoutPrinting)
{
    // The catcher reports what() once; the error paths print nothing.
    testing::internal::CaptureStderr();
    EXPECT_THROW(ssp_fatal("bad option %d", 7), std::runtime_error);
    EXPECT_THROW(ssp_assert(false), std::logic_error);
    const std::string fatal_what =
        whatOf<std::runtime_error>([] { ssp_fatal("bad option %d", 7); });
    const std::string assert_what = whatOf<std::logic_error>([] {
        const int x = 1;
        ssp_assert(x == 2, "x=%d", x);
    });
    const std::string panic_what =
        whatOf<std::logic_error>([] { ssp_panic("broken %s", "invariant"); });
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

    // A fatal is a user-facing message, without a source location; an
    // assertion or a panic says where it fired.
    EXPECT_EQ(fatal_what, "fatal: bad option 7");
    EXPECT_EQ(assert_what.rfind("assertion failed: x == 2: x=1 (", 0), 0u)
        << assert_what;
    EXPECT_EQ(panic_what.rfind("panic: broken invariant (", 0), 0u)
        << panic_what;
    // The location is relative to the source root, so one failure
    // reads the same from every checkout.
    for (const std::string &what : {assert_what, panic_what}) {
        EXPECT_NE(what.find(" (tests/test_common.cc:"), std::string::npos)
            << what;
        EXPECT_EQ(what.find(" (/"), std::string::npos) << what;
    }
}

TEST(Rng, Deterministic)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BoundedStaysInRange)
{
    Rng r(3);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.nextBounded(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        auto v = r.nextRange(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        saw_lo |= (v == 5);
        saw_hi |= (v == 8);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(13);
    for (int i = 0; i < 10000; ++i) {
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliRoughlyCalibrated)
{
    Rng r(17);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Zipf, HotspotConcentratesAccesses)
{
    // Paper's definition: 80% of accesses to 15% of keys.
    const std::uint64_t n = 1000;
    auto gen = ZipfGenerator::hotspot(n, 0.15, 0.80, 99);
    std::map<std::uint64_t, std::uint64_t> counts;
    const int draws = 200000;
    for (int i = 0; i < draws; ++i)
        counts[gen.next()]++;

    // Count accesses landing on the top 15% most popular keys.
    std::vector<std::uint64_t> freq;
    for (auto &kv : counts)
        freq.push_back(kv.second);
    std::sort(freq.rbegin(), freq.rend());
    std::uint64_t top = 0;
    for (std::size_t i = 0; i < 150 && i < freq.size(); ++i)
        top += freq[i];
    const double hot_share = static_cast<double>(top) / draws;
    // Hot keys get 80% plus their uniform share of the remaining 20%.
    EXPECT_NEAR(hot_share, 0.80 + 0.20 * 0.15, 0.03);
}

TEST(Zipf, AllKeysInRange)
{
    auto gen = ZipfGenerator::hotspot(37, 0.15, 0.8, 1);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(gen.next(), 37u);
}

TEST(Stats, SummaryTracksMinMaxMean)
{
    StatSummary s;
    s.sample(4);
    s.sample(10);
    s.sample(1);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_EQ(s.min(), 1u);
    EXPECT_EQ(s.max(), 10u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

} // namespace
