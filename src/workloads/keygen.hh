/**
 * @file
 * Key-distribution generators for the microbenchmarks.
 *
 * The paper's "-Rand" workloads draw keys uniformly; "-Zipf" workloads
 * apply 80% of updates to 15% of the keys (section 5.1).
 */

#ifndef SSP_WORKLOADS_KEYGEN_HH
#define SSP_WORKLOADS_KEYGEN_HH

#include <cstdint>
#include <memory>

#include "common/rng.hh"

namespace ssp
{

/** Key access pattern. */
enum class KeyDist
{
    Uniform, ///< "-Rand"
    Zipf,    ///< "-Zipf" (80/15 hotspot, per the paper's definition)
};

/**
 * Draws keys from [0, key_space) under a distribution.  The key space
 * also sizes the workload's reference model (KeyedReference): 8 bytes
 * plus one bit of host memory per key.
 */
class KeyGenerator
{
  public:
    KeyGenerator(KeyDist dist, std::uint64_t key_space, std::uint64_t seed);

    /** Next key. */
    std::uint64_t next();

    std::uint64_t keySpace() const { return keySpace_; }
    KeyDist dist() const { return dist_; }

  private:
    KeyDist dist_;
    std::uint64_t keySpace_;
    Rng uniform_;
    std::unique_ptr<ZipfGenerator> zipf_;
};

} // namespace ssp

#endif // SSP_WORKLOADS_KEYGEN_HH
