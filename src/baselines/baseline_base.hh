/**
 * @file
 * Shared infrastructure for the logging baselines and the shadow-paging
 * ablation: TLB-timed address translation over the identity-mapped
 * persistent heap, per-core transaction bookkeeping (write set of lines
 * and pages), the record type of their logs, and the common crash
 * plumbing.
 */

#ifndef SSP_BASELINES_BASELINE_BASE_HH
#define SSP_BASELINES_BASELINE_BASE_HH

#include <array>
#include <memory>
#include <vector>

#include "core/backend.hh"
#include "core/config.hh"
#include "core/line_set.hh"
#include "core/machine.hh"
#include "mem/persist_log.hh"

namespace ssp
{

/** One record of a baseline's log. */
struct LogRecord
{
    enum class Kind : std::uint8_t
    {
        Data,   ///< address + one cache line of (old or new) data
        Commit, ///< transaction commit marker
        Map,    ///< page-mapping change (shadow paging)
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
};

/** The undo, redo and shadow-paging mapping logs. */
using BaselineLog = PersistLog<LogRecord>;

/** Per-core transaction state common to all baselines. */
struct BaselineTxState
{
    bool inTx = false;
    TxId tid = 0;
    /** Distinct line addresses written by the ongoing transaction,
     *  iterated in ascending order (the flush/invalidate order). */
    LineSet lines;
    /** Distinct pages written by the ongoing transaction. */
    LineSet pages;

    void
    clear()
    {
        inTx = false;
        lines.clear();
        pages.clear();
    }
};

/** Base class for UNDO-LOG, REDO-LOG and SHADOW. */
class BaselineBase : public AtomicityBackend
{
  public:
    explicit BaselineBase(const SspConfig &cfg);

    void begin(CoreId core) override;
    bool inTx(CoreId core) const override;
    void load(CoreId core, Addr vaddr, void *buf,
              std::uint64_t size) override;
    void storeRaw(Addr vaddr, const void *buf, std::uint64_t size) override;
    void loadRaw(Addr vaddr, void *buf, std::uint64_t size) override;
    void crash() override;
    Machine &machine() override { return *machine_; }
    std::uint64_t committedTxs() const override { return committedTxs_; }
    const TxCharacterization &characterization() const override
    {
        return charz_;
    }

    const SspConfig &cfg() const { return machine_->cfg(); }

  protected:
    /**
     * Timed translation through the TLB (page walk on a miss); baselines
     * have no SSP metadata to fetch.  The hit is inline.
     */
    Ppn
    translate(CoreId core, Vpn vpn)
    {
        if (const TlbEntry *hit = machine_->tlb(core).lookup(vpn))
            return hit->ppn0;
        return translateMiss(core, vpn);
    }

    /** translate() after a TLB miss: walk, then fill the TLB. */
    Ppn translateMiss(CoreId core, Vpn vpn);

    /**
     * Where a load should read line @p line_vaddr from.  The redo
     * baseline redirects reads of lines in the ongoing transaction to
     * its write buffer; others read in place.
     * @return true when the backend supplied the data itself.
     */
    virtual bool redirectLoad(CoreId /*core*/, Addr /*line_vaddr*/,
                              std::uint64_t /*offset*/, void * /*buf*/,
                              std::uint64_t /*size*/)
    {
        return false;
    }

    /** Subclass volatile-state reset on power failure. */
    virtual void onCrash() = 0;

    /** Record a committed transaction's characterization. */
    void noteCommit(CoreId core);

    std::unique_ptr<Machine> machine_;
    std::vector<BaselineTxState> tx_;
    TxId nextTid_ = 1;
    std::uint64_t committedTxs_ = 0;
    TxCharacterization charz_;
};

} // namespace ssp

#endif // SSP_BASELINES_BASELINE_BASE_HH
