/**
 * @file
 * Deterministic random number generation and the key distributions the
 * paper's workloads use (uniform "-Rand" and the 80/15 hotspot "-Zipf").
 */

#ifndef SSP_COMMON_RNG_HH
#define SSP_COMMON_RNG_HH

#include <cstdint>
#include <vector>

namespace ssp
{

/**
 * xorshift128+ generator: fast, reproducible across platforms, and good
 * enough for workload generation (we are not doing cryptography).
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform integer in [lo, hi]. @pre lo <= hi. */
    std::uint64_t nextRange(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw with probability @p p of true. */
    bool nextBool(double p);

  private:
    std::uint64_t s0_;
    std::uint64_t s1_;
};

/**
 * Zipf-like sampler over [0, n).
 *
 * The paper defines its zipfian microbenchmark workloads operationally:
 * "80% of the updates are applied to 15% of the keys".  The hotspot
 * distribution reproduces exactly that.
 */
class ZipfGenerator
{
  public:
    /** Hotspot distribution: @p hot_frac of keys receive @p hot_prob of
     *  accesses (paper default: 0.15 / 0.80). */
    static ZipfGenerator hotspot(std::uint64_t n, double hot_frac,
                                 double hot_prob, std::uint64_t seed);

    /** Draw the next key in [0, n). */
    std::uint64_t next();

    std::uint64_t n() const { return n_; }

  private:
    ZipfGenerator(std::uint64_t n, std::uint64_t seed);

    std::uint64_t n_;
    Rng rng_;
    std::uint64_t hotCount_ = 0;
    double hotProb_ = 0;
};

} // namespace ssp

#endif // SSP_COMMON_RNG_HH
