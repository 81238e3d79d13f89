/**
 * @file
 * Fundamental fixed-width types, address arithmetic and geometry constants
 * shared by every SSP subsystem.
 *
 * The geometry follows the paper (MICRO'19, Table 2 and section 4.3):
 * 4 KiB base pages, 64-byte cache lines, hence 64 lines per page and
 * 64-bit per-page bitmaps.
 */

#ifndef SSP_COMMON_TYPES_HH
#define SSP_COMMON_TYPES_HH

#include <cstdint>
#include <cstddef>
#include <cstdlib>

// The tree leans on C++20 throughout (defaulted operator== as in
// common/bitmap64.hh, __VA_OPT__ in common/logging.hh, ...).  Fail fast
// with one clear diagnostic instead of hundreds of cascading errors.
#if !defined(_MSVC_LANG) && defined(__cplusplus) && __cplusplus < 202002L
#error "SSP requires C++20: compile with -std=c++20 or newer"
#elif defined(_MSVC_LANG) && _MSVC_LANG < 202002L
#error "SSP requires C++20: compile with /std:c++20 or newer"
#endif

namespace ssp
{

/** Deleter for calloc-backed arrays (lazily-mapped zero pages). */
struct FreeDeleter
{
    void operator()(void *p) const { std::free(p); }
};

/** A byte address (virtual or physical, context-dependent). */
using Addr = std::uint64_t;

/** A virtual page number. */
using Vpn = std::uint64_t;

/** A physical page number. */
using Ppn = std::uint64_t;

/** Simulated time in core clock cycles. */
using Cycles = std::uint64_t;

/** Identifier of a simulated core. */
using CoreId = std::uint32_t;

/**
 * Largest core count any simulated machine supports: the width of the
 * multi-word per-line sharer bitmap (common/bitmap64.hh CoreBitmap) and
 * of the mesh interconnect's tile space (src/interconnect/).
 */
inline constexpr unsigned kMaxCores = 256;

/** Identifier of a durable transaction, assigned by the memory controller. */
using TxId = std::uint64_t;

/** Slot index inside the SSP cache (the paper's SID). */
using SlotId = std::uint32_t;

/** Core clock frequency used to convert ns to cycles. */
inline constexpr double kCoreGHz = 3.7;

/** Convert nanoseconds to core cycles at kCoreGHz. */
constexpr Cycles
nsToCycles(double ns)
{
    return static_cast<Cycles>(ns * kCoreGHz);
}

/** An invalid physical page number sentinel. */
inline constexpr Ppn kInvalidPpn = ~std::uint64_t{0};

/** An invalid slot sentinel. */
inline constexpr SlotId kInvalidSlot = ~std::uint32_t{0};

/** Base page size in bytes (the paper only supports 4 KiB base pages). */
inline constexpr std::uint64_t kPageSize = 4096;

/** Cache line size in bytes. */
inline constexpr std::uint64_t kLineSize = 64;

/** Number of cache lines per page; equals the per-page bitmap width. */
inline constexpr std::uint64_t kLinesPerPage = kPageSize / kLineSize;

/** log2(kPageSize). */
inline constexpr unsigned kPageShift = 12;

/** log2(kLineSize). */
inline constexpr unsigned kLineShift = 6;

/**
 * Largest number of physical cache lines a machine may have, 2^29
 * (physical addresses below 32 GiB): a cache tag word holds the line
 * number in 29 bits (cache/cache.hh).  PhysMem refuses a larger space,
 * and a cache fill checks every address it tags against it.
 */
inline constexpr std::uint64_t kMaxPhysLines = std::uint64_t{1} << 29;

/** Extract the virtual page number from a virtual address. */
constexpr Vpn
pageOf(Addr addr)
{
    return addr >> kPageShift;
}

/** Byte offset within the page. */
constexpr std::uint64_t
pageOffset(Addr addr)
{
    return addr & (kPageSize - 1);
}

/** Index of the cache line within its page (0..63). */
constexpr unsigned
lineIndexInPage(Addr addr)
{
    return static_cast<unsigned>(pageOffset(addr) >> kLineShift);
}

/** Global line number of the line containing @p addr. */
constexpr std::uint64_t
lineOf(Addr addr)
{
    return addr >> kLineShift;
}

/** Byte offset within the cache line. */
constexpr std::uint64_t
lineOffset(Addr addr)
{
    return addr & (kLineSize - 1);
}

/** Address of the first byte of the line containing @p addr. */
constexpr Addr
lineBase(Addr addr)
{
    return addr & ~(kLineSize - 1);
}

/** Address of the first byte of page @p ppn. */
constexpr Addr
pageBase(std::uint64_t ppn)
{
    return ppn << kPageShift;
}

/** Physical address of line @p line_idx inside physical page @p ppn. */
constexpr Addr
lineAddr(Ppn ppn, unsigned line_idx)
{
    return pageBase(ppn) + (static_cast<Addr>(line_idx) << kLineShift);
}

/** True if [addr, addr+size) stays within one cache line. */
constexpr bool
fitsInLine(Addr addr, std::uint64_t size)
{
    return size != 0 && lineOffset(addr) + size <= kLineSize;
}

/** True if [addr, addr+size) stays within one page. */
constexpr bool
fitsInPage(Addr addr, std::uint64_t size)
{
    return size != 0 && pageOffset(addr) + size <= kPageSize;
}

} // namespace ssp

#endif // SSP_COMMON_TYPES_HH
