/**
 * @file
 * Typed accessors over an AtomicityBackend: the thin layer the
 * persistent data structures use to read and write 64-bit fields and
 * byte ranges at persistent virtual addresses, inside or outside
 * failure-atomic sections.
 *
 * Every backend access covers exactly one cache line (see
 * core/backend.hh).  loadBytes/storeBytes are the one place a wider
 * byte range is split at line boundaries, into one backend access per
 * line, in address order.
 */

#ifndef SSP_WORKLOADS_TX_HEAP_HH
#define SSP_WORKLOADS_TX_HEAP_HH

#include <algorithm>
#include <cstdint>

#include "core/backend.hh"

namespace ssp
{

/** Convenience wrapper; stateless besides the backend reference. */
class TxHeap
{
  public:
    explicit TxHeap(AtomicityBackend &be) : be_(be) {}

    /** Timed 64-bit load; @p addr must not straddle a line. */
    std::uint64_t
    load64(CoreId core, Addr addr)
    {
        std::uint64_t v = 0;
        be_.load(core, addr, &v, sizeof(v));
        return v;
    }

    /** Timed failure-atomic 64-bit store (must be inside a tx);
     *  @p addr must not straddle a line. */
    void
    store64(CoreId core, Addr addr, std::uint64_t v)
    {
        be_.store(core, addr, &v, sizeof(v));
    }

    /** Timed byte-range load of any span, one line at a time. */
    void
    loadBytes(CoreId core, Addr addr, void *buf, std::uint64_t size)
    {
        forEachLine(addr, static_cast<std::uint8_t *>(buf), size,
                    [&](Addr a, std::uint8_t *p, std::uint64_t n) {
                        be_.load(core, a, p, n);
                    });
    }

    /** Timed failure-atomic store of any span, one line at a time. */
    void
    storeBytes(CoreId core, Addr addr, const void *buf, std::uint64_t size)
    {
        forEachLine(addr, static_cast<const std::uint8_t *>(buf), size,
                    [&](Addr a, const std::uint8_t *p, std::uint64_t n) {
                        be_.store(core, a, p, n);
                    });
    }

    /** Untimed functional read (verification only). */
    std::uint64_t
    raw64(Addr addr)
    {
        std::uint64_t v = 0;
        be_.loadRaw(addr, &v, sizeof(v));
        return v;
    }

    AtomicityBackend &backend() { return be_; }

  private:
    /** Call @p access(addr, bytes, n) once per cache line that
     *  [addr, addr + size) touches. */
    template <typename Byte, typename Access>
    static void
    forEachLine(Addr addr, Byte *bytes, std::uint64_t size, Access access)
    {
        while (size > 0) {
            const std::uint64_t n =
                std::min<std::uint64_t>(size, kLineSize - lineOffset(addr));
            access(addr, bytes, n);
            addr += n;
            bytes += n;
            size -= n;
        }
    }

    AtomicityBackend &be_;
};

} // namespace ssp

#endif // SSP_WORKLOADS_TX_HEAP_HH
