#include "mem/memory_bus.hh"

#include "common/logging.hh"

namespace ssp
{

const char *
writeCategoryName(WriteCategory cat)
{
    switch (cat) {
      case WriteCategory::Data:
        return "data";
      case WriteCategory::UndoLog:
        return "undo-log";
      case WriteCategory::RedoLog:
        return "redo-log";
      case WriteCategory::MetaJournal:
        return "meta-journal";
      case WriteCategory::Consolidation:
        return "consolidation";
      case WriteCategory::Checkpoint:
        return "checkpoint";
      case WriteCategory::PageCopy:
        return "page-copy";
      case WriteCategory::Other:
        return "other";
      default:
        return "invalid";
    }
}

MemoryBus::MemoryBus(PhysMem &mem, const MemSystemParams &params)
    : mem_(mem),
      dram_(params.dram, 1), nvram_(params.nvram, params.nvramChannels)
{
}

MemoryBus::MemoryBus(PhysMem &mem, const MemTimingParams &dram_params,
                     const MemTimingParams &nvram_params)
    : MemoryBus(mem, MemSystemParams{dram_params, nvram_params, 1})
{
}

Cycles
MemoryBus::issueRead(Addr line_addr, Cycles now)
{
    if (mem_.isNvramAddr(line_addr)) {
        ++nvramReads_;
        return nvram_.access(line_addr, false, now);
    }
    return dram_.access(line_addr, false, now);
}

Cycles
MemoryBus::issueWrite(Addr line_addr, WriteCategory cat, Cycles now,
                      bool background)
{
    if (mem_.isNvramAddr(line_addr)) {
        ++nvramWriteCount_[static_cast<unsigned>(cat)];
        return nvram_.access(line_addr, true, now, background);
    }
    ++dramWrites_;
    return dram_.access(line_addr, true, now, background);
}

std::uint64_t
MemoryBus::nvramWrites() const
{
    std::uint64_t total = 0;
    for (auto c : nvramWriteCount_)
        total += c;
    return total;
}

void
MemoryBus::resetStats()
{
    nvramWriteCount_.fill(0);
    nvramReads_ = 0;
    dramWrites_ = 0;
}

void
MemoryBus::resetTiming()
{
    dram_.reset();
    nvram_.reset();
}

} // namespace ssp
