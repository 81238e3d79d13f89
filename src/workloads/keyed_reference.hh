/**
 * @file
 * The host-side reference model of a keyed workload: key -> expected
 * value over a bounded key space [0, keySpace).
 *
 * Every key a keyed workload stores is drawn from its generator's key
 * space, so the model is one flat value array indexed by key, a
 * presence bitmap and a live count: 8 bytes plus one bit per key
 * (32,768 keys cost 256 KiB + 4 KiB), allocated once at construction.
 * Every prefill and run operation updates it, so it is kept free of
 * per-key allocations and pointer chasing.
 */

#ifndef SSP_WORKLOADS_KEYED_REFERENCE_HH
#define SSP_WORKLOADS_KEYED_REFERENCE_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace ssp
{

/** Dense key -> value model over [0, keySpace). */
class KeyedReference
{
  public:
    explicit KeyedReference(std::uint64_t key_space)
        : values_(key_space), present_((key_space + 63) / 64)
    {
    }

    std::uint64_t keySpace() const { return values_.size(); }
    std::uint64_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Map @p key (which must lie in the key space) to @p value. */
    void
    set(std::uint64_t key, std::uint64_t value)
    {
        ssp_assert(key < keySpace(), "reference key past the key space");
        std::uint64_t &word = present_[key / 64];
        const std::uint64_t bit = std::uint64_t{1} << (key % 64);
        size_ += (word & bit) == 0;
        word |= bit;
        values_[key] = value;
    }

    /** Remove @p key (which must lie in the key space), if present. */
    void
    erase(std::uint64_t key)
    {
        ssp_assert(key < keySpace(), "reference key past the key space");
        std::uint64_t &word = present_[key / 64];
        const std::uint64_t bit = std::uint64_t{1} << (key % 64);
        size_ -= (word & bit) != 0;
        word &= ~bit;
    }

    /** @p key's value, or nullptr when absent (any key past the key
     *  space is absent, so a corrupted image key reads as absent). */
    const std::uint64_t *
    find(std::uint64_t key) const
    {
        if (key >= keySpace() ||
            (present_[key / 64] >> (key % 64) & 1) == 0) {
            return nullptr;
        }
        return &values_[key];
    }

    /**
     * The smallest present key at or after @p from, or keySpace() when
     * there is none: an ascending walk is
     * `for (k = next(0); k < keySpace(); k = next(k + 1))`.
     */
    std::uint64_t
    next(std::uint64_t from) const
    {
        if (from >= keySpace())
            return keySpace();
        std::uint64_t w = from / 64;
        std::uint64_t bits = present_[w] & (~std::uint64_t{0} << (from % 64));
        while (bits == 0) {
            if (++w == present_.size())
                return keySpace();
            bits = present_[w];
        }
        return w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits));
    }

  private:
    std::vector<std::uint64_t> values_;  ///< by key; valid where present
    std::vector<std::uint64_t> present_; ///< one bit per key
    std::uint64_t size_ = 0;             ///< keys present
};

} // namespace ssp

#endif // SSP_WORKLOADS_KEYED_REFERENCE_HH
