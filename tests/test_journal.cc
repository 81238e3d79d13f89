/**
 * @file
 * Unit tests for the persistent log as the metadata journal and as the
 * baselines' undo/redo logs: line-granular durability watermarks,
 * commit-marker semantics, truncation, power-failure truncation, and
 * the timing each log mode gives its owner.
 */

#include <gtest/gtest.h>

#include "baselines/baseline_base.hh"
#include "mem/memory_bus.hh"
#include "mem/phys_mem.hh"
#include "nvram/journal.hh"
#include "nvram/mem_controller.hh"
#include "vm/page_table.hh"

using namespace ssp;

namespace
{

class JournalTest : public ::testing::Test
{
  protected:
    JournalTest()
        : mem(64, 4),
          bus(mem, MemTimingParams{4, 1024, 100, 100, 0.4},
              MemTimingParams{4, 1024, 200, 800, 0.4}),
          journal(bus, 0, 16 * kPageSize, WriteCategory::MetaJournal,
                  LogMode::BackgroundStreamed)
    {
    }

    JournalRecord
    update(TxId tid, SlotId sid, std::uint64_t committed)
    {
        JournalRecord rec;
        rec.kind = JournalKind::Update;
        rec.tid = tid;
        rec.sid = sid;
        rec.vpn = 100 + sid;
        rec.ppn0 = 200 + sid;
        rec.ppn1 = 300 + sid;
        rec.committed = Bitmap64(committed);
        return rec;
    }

    JournalRecord
    commitMarker(TxId tid)
    {
        JournalRecord rec;
        rec.kind = JournalKind::Commit;
        rec.tid = tid;
        return rec;
    }

    PhysMem mem;
    MemoryBus bus;
    MetadataJournal journal;
};

TEST_F(JournalTest, RecordSizes)
{
    EXPECT_EQ(update(1, 0, 0).sizeBytes(), 40u);
    EXPECT_EQ(commitMarker(1).sizeBytes(), 8u);
}

TEST_F(JournalTest, NothingPersistedBeforeFlush)
{
    journal.append(update(1, 0, 0xff), 0);
    // 40 bytes < one line: nothing streamed yet.
    EXPECT_EQ(journal.persistedBytes(), 0u);
    EXPECT_TRUE(journal.persistedRecords().empty());
}

TEST_F(JournalTest, FlushPersistsPartialLine)
{
    journal.append(update(1, 0, 0xff), 0);
    const Cycles done = journal.flush(0);
    EXPECT_GT(done, 0u);
    EXPECT_GE(journal.persistedBytes(), 40u);
    EXPECT_EQ(journal.persistedRecords().size(), 1u);
    EXPECT_EQ(bus.nvramWrites(WriteCategory::MetaJournal), 1u);
}

TEST_F(JournalTest, FullLinesStreamWithoutFlush)
{
    // Two 40-byte records cross the first 64-byte line boundary.
    journal.append(update(1, 0, 1), 0);
    journal.append(update(1, 1, 2), 0);
    EXPECT_EQ(journal.persistedBytes(), 64u);
    // Only the first record is fully inside the persisted line.
    EXPECT_EQ(journal.persistedRecords().size(), 1u);
}

TEST_F(JournalTest, PowerFailDropsUnpersistedTail)
{
    journal.append(update(1, 0, 1), 0);
    journal.flush(0);
    journal.append(update(2, 1, 2), 0);
    journal.powerFail();
    auto recs = journal.persistedRecords();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].tid, 1u);
}

TEST_F(JournalTest, AppendedBytesCountsUntilTruncate)
{
    // The controller checkpoints on appendedBytes(); records pack.
    const std::uint64_t target = 8 * kPageSize;
    std::uint64_t appended = 0;
    TxId tid = 1;
    while (appended < target) {
        journal.append(update(tid++, 0, 1), 0);
        appended += 40;
        ASSERT_EQ(journal.appendedBytes(), appended);
    }
    journal.truncate();
    EXPECT_EQ(journal.appendedBytes(), 0u);
    EXPECT_EQ(journal.persistedBytes(), 0u);
    EXPECT_TRUE(journal.allRecords().empty());
}

TEST_F(JournalTest, OverflowIsFatal)
{
    MetadataJournal tiny(bus, 0, 4 * kLineSize, WriteCategory::MetaJournal,
                         LogMode::BackgroundStreamed);
    tiny.append(update(1, 0, 1), 0);
    tiny.append(update(1, 1, 1), 0);
    tiny.append(update(1, 2, 1), 0);
    tiny.append(update(1, 3, 1), 0);
    tiny.append(update(1, 4, 1), 0);
    tiny.append(update(1, 5, 1), 0); // 240 bytes of 256
    EXPECT_THROW(tiny.append(update(1, 6, 1), 0), std::runtime_error);
}

TEST_F(JournalTest, RecordOrderPreserved)
{
    for (unsigned i = 0; i < 10; ++i)
        journal.append(update(i, i, i), 0);
    journal.append(commitMarker(99), 0);
    journal.flush(0);
    auto recs = journal.persistedRecords();
    ASSERT_EQ(recs.size(), 11u);
    for (unsigned i = 0; i < 10; ++i)
        EXPECT_EQ(recs[i].tid, i);
    EXPECT_EQ(recs[10].kind, JournalKind::Commit);
}

TEST(ControllerCheckpoint, RunsWhenTheJournalReachesTheThreshold)
{
    PhysMem mem(64, 4);
    MemoryBus bus(mem, MemTimingParams{4, 1024, 100, 100, 0.4},
                  MemTimingParams{4, 1024, 200, 800, 0.4});
    PageTable pt(0);
    MemControllerParams params;
    params.shadowPoolBase = 32;
    params.shadowPoolPages = 16;
    params.journalBytes = 16 * kLineSize;
    params.persistentCacheBase = kPageSize;
    params.persistentCacheBytes = kPageSize;
    params.checkpointThresholdBytes = 2 * kLineSize;
    MemController mc(params, bus, pt);
    // Each commit appends one 8-byte marker: the 16th reaches 128 bytes.
    for (int i = 0; i < 15; ++i)
        mc.commitTx(mc.beginTx(), 0);
    EXPECT_EQ(mc.checkpoints(), 0u);
    EXPECT_EQ(mc.journal().appendedBytes(), 15 * 8u);
    mc.commitTx(mc.beginTx(), 0);
    EXPECT_EQ(mc.checkpoints(), 1u);
    EXPECT_EQ(mc.journal().appendedBytes(), 0u);
}

// ---- The baselines' logs -----------------------------------------------

class PersistLogTest : public ::testing::Test
{
  protected:
    PersistLogTest()
        : mem(64, 4),
          bus(mem, MemTimingParams{4, 1024, 100, 100, 0.4},
              MemTimingParams{4, 1024, 200, 800, 0.4}),
          undo(bus, 0, 16 * kPageSize, WriteCategory::UndoLog,
               LogMode::Synchronous),
          redo(bus, 16 * kPageSize, 16 * kPageSize, WriteCategory::RedoLog,
               LogMode::Streamed)
    {
    }

    LogRecord
    dataRec(TxId tid, Addr addr)
    {
        LogRecord rec;
        rec.kind = LogRecord::Kind::Data;
        rec.tid = tid;
        rec.addr = addr;
        rec.data.fill(0x5a);
        return rec;
    }

    PhysMem mem;
    MemoryBus bus;
    BaselineLog undo;
    BaselineLog redo;
};

TEST_F(PersistLogTest, SynchronousAppendIsDurableImmediately)
{
    const Cycles done = undo.append(dataRec(1, 0x40), 0);
    EXPECT_GT(done, 0u);
    EXPECT_EQ(undo.persistedRecords().size(), 1u);
    // An 80-byte record spans two lines.
    EXPECT_EQ(undo.lineWrites(), 2u);
}

TEST_F(PersistLogTest, AsyncAppendDoesNotStall)
{
    const Cycles done = redo.append(dataRec(1, 0x40), 500);
    EXPECT_EQ(done, 500u); // no stall for the caller
    EXPECT_TRUE(redo.persistedRecords().size() <= 1);
    redo.flush(500);
    EXPECT_EQ(redo.persistedRecords().size(), 1u);
}

TEST_F(PersistLogTest, CommitMarkerSize)
{
    LogRecord marker;
    marker.kind = LogRecord::Kind::Commit;
    EXPECT_EQ(marker.sizeBytes(), 8u);
}

TEST_F(PersistLogTest, TruncateResets)
{
    undo.append(dataRec(1, 0), 0);
    undo.truncate();
    EXPECT_EQ(undo.appendedBytes(), 0u);
    EXPECT_EQ(undo.persistedBytes(), 0u);
    EXPECT_TRUE(undo.persistedRecords().empty());
}

TEST_F(PersistLogTest, PowerFailKeepsDurablePrefix)
{
    redo.append(dataRec(1, 0x40), 0);
    redo.flush(0);
    redo.append(dataRec(2, 0x80), 0); // tail, not yet durable
    redo.powerFail();
    auto recs = redo.persistedRecords();
    // Record 2 may be partially covered by record 1's line flushes; it
    // must NOT survive unless fully persisted.
    for (const auto &r : recs)
        EXPECT_EQ(r.tid, 1u);
}

// ---- Timing each log owner relies on ----------------------------------

class LogTimingTest : public ::testing::Test
{
  protected:
    LogTimingTest()
        : mem(64, 4), bus(mem, kDram, kNvram), ref(mem, kDram, kNvram),
          redo(bus, 0, 16 * kPageSize, WriteCategory::RedoLog,
               LogMode::Streamed),
          undo(bus, 0, 16 * kPageSize, WriteCategory::UndoLog,
               LogMode::Synchronous),
          journal(bus, 0, 16 * kPageSize, WriteCategory::MetaJournal,
                  LogMode::BackgroundStreamed)
    {
    }

    static LogRecord
    dataRec(TxId tid, Addr addr)
    {
        LogRecord rec;
        rec.kind = LogRecord::Kind::Data;
        rec.tid = tid;
        rec.addr = addr;
        return rec;
    }

    static JournalRecord
    journalRec(JournalKind kind)
    {
        JournalRecord rec;
        rec.kind = kind;
        rec.tid = 1;
        return rec;
    }

    static constexpr MemTimingParams kDram{4, 1024, 100, 100, 0.4};
    static constexpr MemTimingParams kNvram{4, 1024, 200, 800, 0.4};

    PhysMem mem;
    MemoryBus bus;
    /** Idle twin of bus: replays by hand what a log should have issued. */
    MemoryBus ref;
    BaselineLog redo;
    BaselineLog undo;
    MetadataJournal journal;
};

TEST_F(LogTimingTest, RedoStreamedLineDelaysLaterAccessToItsBank)
{
    // An 80-byte record fills line 0, which streams as a foreground
    // write: it occupies bank 0 and the channel's write bus.
    EXPECT_EQ(redo.append(dataRec(1, 0x40), 0), 0u);
    ref.issueWrite(0, WriteCategory::RedoLog, 0);
    const Cycles read_done = bus.issueRead(kLineSize * 2, 0);
    EXPECT_EQ(read_done, ref.issueRead(kLineSize * 2, 0));
    MemoryBus idle(mem, kDram, kNvram);
    EXPECT_GT(read_done, idle.issueRead(kLineSize * 2, 0));
}

TEST_F(LogTimingTest, JournalStreamedLineLeavesItsBankFree)
{
    // Two 40-byte records fill line 0, which drains from the log
    // buffer in the background: the bank stays free for the core.
    journal.append(journalRec(JournalKind::Update), 0);
    journal.append(journalRec(JournalKind::Update), 0);
    EXPECT_EQ(journal.persistedBytes(), kLineSize);
    EXPECT_EQ(bus.nvramWrites(WriteCategory::MetaJournal), 1u);
    EXPECT_EQ(bus.issueRead(kLineSize * 2, 0),
              ref.issueRead(kLineSize * 2, 0));
}

TEST_F(LogTimingTest, JournalFlushOfLineAlignedHeadReturnsNow)
{
    // Eight 8-byte commit markers end exactly on a line boundary: the
    // line streamed out during the last append, so a flush has nothing
    // pending and does not wait for that line's write.
    for (int i = 0; i < 8; ++i)
        journal.append(journalRec(JournalKind::Commit), 0);
    EXPECT_EQ(journal.persistedBytes(), kLineSize);
    EXPECT_EQ(journal.flush(100), 100u);
    EXPECT_EQ(bus.nvramWrites(WriteCategory::MetaJournal), 1u);
}

TEST_F(LogTimingTest, UndoSyncAppendReturnsCompletionOfItsLastLine)
{
    // An 80-byte record padded to two lines: both are foreground
    // writes, and the append returns when the second one completes.
    const Cycles done = undo.append(dataRec(1, 0x40), 0);
    ref.issueWrite(0, WriteCategory::UndoLog, 0);
    EXPECT_EQ(done, ref.issueWrite(kLineSize, WriteCategory::UndoLog, 0));
    EXPECT_EQ(undo.persistedBytes(), 2 * kLineSize);
    EXPECT_EQ(bus.nvramWrites(WriteCategory::UndoLog), 2u);
}

} // namespace
