/**
 * @file
 * A generic persistent log with a durability watermark, shared by the
 * hardware undo-logging and redo-logging baselines (and the shadow-
 * paging ablation's mapping journal).
 *
 * Records are kept structured for the simulator's benefit, while sizes
 * and line-granular write-back are byte-accurate so the log-write counts
 * of Figure 6 are faithful.  A record is durable when the log line that
 * contains its last byte has been written to NVRAM.
 */

#ifndef SSP_BASELINES_PERSIST_LOG_HH
#define SSP_BASELINES_PERSIST_LOG_HH

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.hh"
#include "mem/memory_bus.hh"

namespace ssp
{

/** One log record. */
struct LogRecord
{
    enum class Kind : std::uint8_t
    {
        Data,   ///< address + one cache line of (old or new) data
        Commit, ///< transaction commit marker
        Map,    ///< page-mapping change (shadow-paging ablation)
    };

    Kind kind = Kind::Data;
    TxId tid = 0;
    Addr addr = 0;            ///< target line address (Data) / vpn (Map)
    Ppn mapPpn = kInvalidPpn; ///< new mapping (Map records)
    /** Line payload (Data records only); inline, so logging a line
     *  allocates nothing. */
    std::array<std::uint8_t, kLineSize> data{};

    /** Serialized size: 16-byte header plus the payload (Data only). */
    std::uint64_t
    sizeBytes() const
    {
        if (kind == Kind::Commit)
            return 8;
        return kind == Kind::Data ? 16 + kLineSize : 16;
    }

    /** Size including line padding (synchronous logging cannot pack
     *  across entries that persist at different times). */
    std::uint64_t
    paddedSizeBytes() const
    {
        const std::uint64_t raw = sizeBytes();
        return (raw + kLineSize - 1) / kLineSize * kLineSize;
    }
};

/** Append-only log over an NVRAM region. */
class PersistLog
{
  public:
    /**
     * @param bus Memory bus for write-back accounting/timing.
     * @param base_addr NVRAM byte address of this log's region.
     * @param capacity_bytes Region size.
     * @param category Write category the log's traffic is charged to.
     * @param line_padded When true, each record occupies whole lines of
     *        its own (synchronous hardware logging: every entry persists
     *        by itself, so entries cannot share lines).  When false,
     *        records pack back-to-back (asynchronous streaming).
     */
    PersistLog(MemoryBus &bus, Addr base_addr, std::uint64_t capacity_bytes,
               WriteCategory category, bool line_padded = false);

    /**
     * Append a record.
     * @param persist_now Synchronous logging (undo): stall until the
     *        record's lines are in NVRAM.  Asynchronous logging (redo):
     *        stream full lines in the background.
     * @return completion time the caller must stall to (== @p now for
     *         asynchronous appends).
     */
    Cycles append(LogRecord rec, Cycles now, bool persist_now);

    /** Force everything appended so far to NVRAM; returns completion. */
    Cycles flush(Cycles now);

    /** Records that would survive a crash right now. */
    std::vector<LogRecord> persistedRecords() const;

    /** Drop all records and reset the head (post-commit truncation). */
    void truncate();

    /** Power failure: the unpersisted tail is lost. */
    void powerFail();

    std::uint64_t appendedBytes() const { return headBytes_; }
    std::uint64_t persistedBytes() const { return persistedBytes_; }
    std::uint64_t lineWrites() const { return lineWrites_; }

  private:
    Cycles persistUpTo(std::uint64_t upto, Cycles now, bool partial);

    MemoryBus &bus_;
    Addr baseAddr_;
    std::uint64_t capacityBytes_;
    WriteCategory category_;
    bool linePadded_;

    std::deque<LogRecord> records_;
    std::vector<std::uint64_t> recordEnds_;
    std::uint64_t headBytes_ = 0;
    std::uint64_t persistedBytes_ = 0;
    std::uint64_t lineWrites_ = 0;
    /** Next line index not yet written to the NVRAM array.  The tail
     *  line combines in the controller's persistent write queue, so a
     *  partially-filled line is written to the array only once. */
    std::uint64_t countedLines_ = 0;
    /** Completion time of the latest background line write. */
    Cycles backgroundDoneAt_ = 0;
};

} // namespace ssp

#endif // SSP_BASELINES_PERSIST_LOG_HH
