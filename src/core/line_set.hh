/**
 * @file
 * A sorted set of cache-line addresses.
 *
 * The ConflictManager records every transactional store into a
 * per-transaction write set, and the baselines record every written
 * line and page, which makes set insertion an inner loop of every
 * cell.  Table 3 characterizes transaction footprints as a
 * handful of lines, so a hash set pays allocation, hashing and
 * pointer-chasing for sets that almost always fit in a cache line or
 * two.
 *
 * LineSet stores the lines sorted and unique in one vector.  Membership
 * is binary search and insertion is a memmove — sequential memory, no
 * hashing.  clear() keeps the capacity, so a set recycled across
 * transactions stops allocating once it has seen its largest footprint.
 * Iteration order is the address order, deterministic by construction.
 */

#ifndef SSP_CORE_LINE_SET_HH
#define SSP_CORE_LINE_SET_HH

#include <algorithm>
#include <vector>

#include "common/types.hh"

namespace ssp
{

/** Sorted-unique set of line addresses (see file doc). */
class LineSet
{
  public:
    /** Insert @p line; returns true when it was not already present. */
    bool
    insert(Addr line)
    {
        auto pos = std::lower_bound(lines_.begin(), lines_.end(), line);
        if (pos != lines_.end() && *pos == line)
            return false;
        lines_.insert(pos, line);
        return true;
    }

    /** True when @p line is in the set. */
    bool
    contains(Addr line) const
    {
        return std::binary_search(lines_.begin(), lines_.end(), line);
    }

    /** Drop every element (the capacity is retained). */
    void clear() { lines_.clear(); }

    bool empty() const { return lines_.empty(); }
    std::size_t size() const { return lines_.size(); }

    /** @{ Sorted iteration. */
    auto begin() const { return lines_.begin(); }
    auto end() const { return lines_.end(); }
    /** @} */

  private:
    std::vector<Addr> lines_;
};

} // namespace ssp

#endif // SSP_CORE_LINE_SET_HH
