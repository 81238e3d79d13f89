/**
 * @file
 * The persistent log: one append-only record stream over an NVRAM
 * region with a durability watermark.  Every log in the simulator is
 * one: the SSP metadata journal (paper section 3.3 / 4.1.2), the
 * hardware undo and DHTM-style redo logs SSP is compared against, and
 * the shadow-paging backend's mapping journal.
 *
 * Records are kept structured (the simulator never needs the raw
 * encoding; a record type supplies only its serialized sizeBytes()),
 * while sizes and line-granular write-back are byte-accurate so the
 * log and journal write counts of Figures 6 and 7 are faithful.  The
 * tail line write-combines in the controller's persistent write queue
 * (ADR domain) until it fills, so each log line reaches the NVRAM array
 * exactly once.
 *
 * Crash model: a record survives a power failure exactly when the line
 * holding its last byte was written, i.e. when it ends at or below
 * persistedBytes(); the rest of the log is lost.
 */

#ifndef SSP_MEM_PERSIST_LOG_HH
#define SSP_MEM_PERSIST_LOG_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "mem/memory_bus.hh"

namespace ssp
{

/** When a log's lines are written, and who waits for them. */
enum class LogMode : std::uint8_t
{
    /** Hardware undo logging: every append persists before it returns
     *  (log before data).  Entries that persist at different times
     *  cannot share a line, so each record occupies whole lines. */
    Synchronous,
    /** DHTM-style redo logging: records pack back to back, and each
     *  line that fills streams over the channel's write bus as a
     *  foreground write, occupying its bank; flush() persists the
     *  tail. */
    Streamed,
    /** The SSP metadata journal: as Streamed, but filled lines drain
     *  from the controller's log buffer in the background and occupy
     *  no bank. */
    BackgroundStreamed,
};

/** Acknowledgment latency of a flush whose tail already sits in the
 *  persistent write queue, so that no array write is needed. */
inline constexpr Cycles kWpqAckCycles = 30;

/** An append-only log of @p Record over an NVRAM region. */
template <class Record>
class PersistLog
{
  public:
    /**
     * @param bus Memory bus that times and counts the log's writes.
     * @param base_addr Line-aligned NVRAM byte address of the region.
     * @param capacity_bytes Region size.
     * @param category Write category the log's traffic is charged to.
     * @param mode When lines are written (see LogMode).
     */
    PersistLog(MemoryBus &bus, Addr base_addr, std::uint64_t capacity_bytes,
               WriteCategory category, LogMode mode)
        : bus_(bus), baseAddr_(base_addr), capacityBytes_(capacity_bytes),
          category_(category), mode_(mode)
    {
        ssp_assert(lineOffset(base_addr) == 0);
        ssp_assert(capacity_bytes >= 4 * kLineSize);
    }

    /**
     * Append a record.
     * @return the time the caller stalls to: for a Synchronous log the
     *         completion of the record's last line, otherwise @p now
     *         (lines that fill stream out and nobody waits for them).
     */
    Cycles
    append(const Record &rec, Cycles now)
    {
        std::uint64_t size = rec.sizeBytes();
        if (mode_ == LogMode::Synchronous)
            size = (size + kLineSize - 1) / kLineSize * kLineSize;
        if (headBytes_ + size > capacityBytes_) {
            ssp_fatal("%s overflow (%llu bytes appended)",
                      writeCategoryName(category_),
                      static_cast<unsigned long long>(headBytes_));
        }
        records_.push_back(rec);
        headBytes_ += size;
        recordEnds_.push_back(headBytes_);

        if (mode_ == LogMode::Synchronous)
            return flush(now);
        const std::uint64_t full = headBytes_ / kLineSize * kLineSize;
        if (full > persistedBytes_) {
            const bool background = mode_ == LogMode::BackgroundStreamed;
            const Cycles done = writeLines(full / kLineSize, now, background);
            streamDoneAt_ = std::max(streamDoneAt_, done);
            persistedBytes_ = full;
        }
        return now;
    }

    /**
     * Persist everything appended so far: the durability point of a
     * commit.  The tail line is a foreground write, and the flush also
     * waits for lines still streaming.  With nothing pending it returns
     * @p now at once, even while streamed lines are in flight.
     */
    Cycles
    flush(Cycles now)
    {
        if (persistedBytes_ >= headBytes_)
            return now;
        const std::uint64_t written = countedLines_;
        Cycles done = writeLines((headBytes_ + kLineSize - 1) / kLineSize,
                                 now, false);
        if (countedLines_ == written)
            done = std::max(done, now + kWpqAckCycles);
        persistedBytes_ = headBytes_;
        return std::max(done, streamDoneAt_);
    }

    /** Records that survive a crash right now, in append order. */
    std::vector<Record>
    persistedRecords() const
    {
        std::vector<Record> out;
        for (std::size_t i = 0; i < records_.size(); ++i) {
            if (recordEnds_[i] <= persistedBytes_)
                out.push_back(records_[i]);
        }
        return out;
    }

    /** Every record, durable or not (a checkpoint captures them all). */
    const std::deque<Record> &allRecords() const { return records_; }

    /** Drop every record and restart at the region's base (after a
     *  commit or a checkpoint has captured their effects). */
    void
    truncate()
    {
        records_.clear();
        recordEnds_.clear();
        headBytes_ = 0;
        persistedBytes_ = 0;
        countedLines_ = 0;
        streamDoneAt_ = 0;
    }

    /** Power failure: the records past the durable watermark are lost;
     *  the watermark itself stays. */
    void
    powerFail()
    {
        while (!records_.empty() && recordEnds_.back() > persistedBytes_) {
            records_.pop_back();
            recordEnds_.pop_back();
        }
        headBytes_ = records_.empty() ? 0 : recordEnds_.back();
        streamDoneAt_ = 0;
    }

    std::uint64_t appendedBytes() const { return headBytes_; }
    std::uint64_t persistedBytes() const { return persistedBytes_; }
    std::uint64_t lineWrites() const { return lineWrites_; }

  private:
    /** Write every line below @p end_line not yet in the array;
     *  returns the latest completion (@p now when none is written). */
    Cycles
    writeLines(std::uint64_t end_line, Cycles now, bool background)
    {
        Cycles done = now;
        for (; countedLines_ < end_line; ++countedLines_, ++lineWrites_) {
            const Addr line = baseAddr_ + countedLines_ * kLineSize;
            const Cycles t = bus_.issueWrite(line, category_, now, background);
            done = std::max(done, t);
        }
        return done;
    }

    MemoryBus &bus_;
    Addr baseAddr_;
    std::uint64_t capacityBytes_;
    WriteCategory category_;
    LogMode mode_;

    std::deque<Record> records_;
    std::vector<std::uint64_t> recordEnds_; ///< byte offset after record i
    std::uint64_t headBytes_ = 0;           ///< append cursor
    std::uint64_t persistedBytes_ = 0;      ///< durable watermark
    /** Lines already written to the array; the line at this index is
     *  the one combining in the write queue. */
    std::uint64_t countedLines_ = 0;
    /** Latest completion of a streamed line. */
    Cycles streamDoneAt_ = 0;
    std::uint64_t lineWrites_ = 0;
};

} // namespace ssp

#endif // SSP_MEM_PERSIST_LOG_HH
