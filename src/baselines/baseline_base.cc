#include "baselines/baseline_base.hh"

#include "common/logging.hh"

namespace ssp
{

BaselineBase::BaselineBase(const SspConfig &cfg)
    : machine_(std::make_unique<Machine>(cfg)), tx_(cfg.numCores)
{
}

void
BaselineBase::begin(CoreId core)
{
    ssp_assert(!tx_[core].inTx, "nested failure-atomic sections");
    tx_[core].inTx = true;
    tx_[core].tid = nextTid_++;
    machine_->clock(core) += Machine::kOpCost;
    machine_->conflicts().beginTx(core, machine_->clock(core));
}

bool
BaselineBase::inTx(CoreId core) const
{
    return tx_[core].inTx;
}

Ppn
BaselineBase::translateMiss(CoreId core, Vpn vpn)
{
    Cycles &now = machine_->clock(core);
    Tlb &tlb = machine_->tlb(core);
    tlb.countMiss();
    now = machine_->pt().walk(now);
    Ppn ppn = machine_->pt().translate(vpn);
    TlbEntry entry;
    entry.valid = true;
    entry.vpn = vpn;
    entry.ppn0 = ppn;
    tlb.insert(entry);
    return ppn;
}

void
BaselineBase::load(CoreId core, Addr vaddr, void *buf, std::uint64_t size)
{
    auto *out = static_cast<std::uint8_t *>(buf);
    Cycles &now = machine_->clock(core);
    while (size > 0) {
        const std::uint64_t in_line =
            std::min<std::uint64_t>(size, kLineSize - lineOffset(vaddr));
        const Ppn ppn = translate(core, pageOf(vaddr));
        const Addr loc =
            lineAddr(ppn, lineIndexInPage(vaddr)) + lineOffset(vaddr);
        now = machine_->caches().read(core, loc, now);
        now += Machine::kOpCost;
        if (!redirectLoad(core, lineBase(vaddr), lineOffset(vaddr), out,
                          in_line)) {
            machine_->mem().read(loc, out, in_line);
        }
        machine_->conflicts().recordRead(core, vaddr);
        vaddr += in_line;
        out += in_line;
        size -= in_line;
    }
}

void
BaselineBase::storeRaw(Addr vaddr, const void *buf, std::uint64_t size)
{
    // Identity-style setup store: write through the page table mapping.
    const auto *in = static_cast<const std::uint8_t *>(buf);
    while (size > 0) {
        const std::uint64_t in_line =
            std::min<std::uint64_t>(size, kLineSize - lineOffset(vaddr));
        const Ppn ppn = machine_->pt().translate(pageOf(vaddr));
        machine_->mem().write(
            lineAddr(ppn, lineIndexInPage(vaddr)) + lineOffset(vaddr), in,
            in_line);
        vaddr += in_line;
        in += in_line;
        size -= in_line;
    }
}

void
BaselineBase::loadRaw(Addr vaddr, void *buf, std::uint64_t size)
{
    auto *out = static_cast<std::uint8_t *>(buf);
    while (size > 0) {
        const std::uint64_t in_line =
            std::min<std::uint64_t>(size, kLineSize - lineOffset(vaddr));
        const Ppn ppn = machine_->pt().translate(pageOf(vaddr));
        if (!redirectLoad(0, lineBase(vaddr), lineOffset(vaddr), out,
                          in_line)) {
            machine_->mem().read(
                lineAddr(ppn, lineIndexInPage(vaddr)) + lineOffset(vaddr),
                out, in_line);
        }
        vaddr += in_line;
        out += in_line;
        size -= in_line;
    }
}

void
BaselineBase::crash()
{
    machine_->powerFail();
    for (auto &t : tx_)
        t.clear();
    onCrash();
}

void
BaselineBase::noteCommit(CoreId core)
{
    charz_.linesPerTx.sample(tx_[core].lines.size());
    charz_.pagesPerTx.sample(tx_[core].pages.size());
    ++committedTxs_;
}

} // namespace ssp
