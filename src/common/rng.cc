#include "common/rng.hh"

#include <cmath>

#include "common/logging.hh"

namespace ssp
{

Rng::Rng(std::uint64_t seed)
{
    // SplitMix64 to expand the seed into two non-zero state words.
    auto splitmix = [&seed]() {
        seed += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = seed;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    };
    s0_ = splitmix();
    s1_ = splitmix();
    if (s0_ == 0 && s1_ == 0)
        s1_ = 1;
}

std::uint64_t
Rng::next()
{
    std::uint64_t x = s0_;
    const std::uint64_t y = s1_;
    s0_ = y;
    x ^= x << 23;
    s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s1_ + y;
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    ssp_assert(bound > 0);
    // Rejection sampling to avoid modulo bias for large bounds.
    const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
    std::uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return v % bound;
}

std::uint64_t
Rng::nextRange(std::uint64_t lo, std::uint64_t hi)
{
    ssp_assert(lo <= hi);
    return lo + nextBounded(hi - lo + 1);
}

double
Rng::nextDouble()
{
    // 53 random mantissa bits.
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

ZipfGenerator::ZipfGenerator(std::uint64_t n, std::uint64_t seed)
    : n_(n), rng_(seed)
{
    ssp_assert(n > 0);
}

ZipfGenerator
ZipfGenerator::hotspot(std::uint64_t n, double hot_frac, double hot_prob,
                       std::uint64_t seed)
{
    ssp_assert(hot_frac > 0 && hot_frac <= 1.0);
    ssp_assert(hot_prob >= 0 && hot_prob <= 1.0);
    ZipfGenerator g(n, seed);
    g.hotCount_ = static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(n) * hot_frac));
    if (g.hotCount_ == 0)
        g.hotCount_ = 1;
    if (g.hotCount_ > n)
        g.hotCount_ = n;
    g.hotProb_ = hot_prob;
    return g;
}

std::uint64_t
ZipfGenerator::next()
{
    if (rng_.nextBool(hotProb_)) {
        // Hot keys are spread over the key space (every 1/hot_frac-th
        // key) so that hotness is not an artifact of allocation order.
        std::uint64_t h = rng_.nextBounded(hotCount_);
        std::uint64_t stride = n_ / hotCount_;
        if (stride == 0)
            stride = 1;
        return (h * stride) % n_;
    }
    return rng_.nextBounded(n_);
}

} // namespace ssp
