#include "workloads/keygen.hh"

#include "common/logging.hh"

namespace ssp
{

KeyGenerator::KeyGenerator(KeyDist dist, std::uint64_t key_space,
                           std::uint64_t seed)
    : dist_(dist), keySpace_(key_space), uniform_(seed)
{
    ssp_assert(key_space > 0);
    if (dist == KeyDist::Zipf) {
        // Paper section 5.1: 80% of updates go to 15% of the keys.
        zipf_ = std::make_unique<ZipfGenerator>(
            ZipfGenerator::hotspot(key_space, 0.15, 0.80, seed ^ 0x5bd1));
    }
}

std::uint64_t
KeyGenerator::next()
{
    if (dist_ == KeyDist::Zipf)
        return zipf_->next();
    return uniform_.nextBounded(keySpace_);
}

} // namespace ssp
