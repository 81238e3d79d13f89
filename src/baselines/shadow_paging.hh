/**
 * @file
 * SHADOW: conventional page-granularity shadow paging, the ablation the
 * paper dismisses analytically ("conventional shadow paging degrades
 * performance by writing up to 64x more cache lines", section 5.1).
 *
 * Semantics: the first atomic store to a page inside a transaction
 * allocates a shadow page and copies the whole source page into it
 * (copy-on-write); reads and writes of touched pages are redirected to
 * the shadow.  Commit persists every line of every shadow page, journals
 * the mapping switches with a commit marker, and retargets the page
 * table; the old pages return to the pool.  Recovery replays mapping
 * records of committed transactions.
 */

#ifndef SSP_BASELINES_SHADOW_PAGING_HH
#define SSP_BASELINES_SHADOW_PAGING_HH

#include <unordered_map>
#include <vector>

#include "baselines/baseline_base.hh"
#include "nvram/free_pages.hh"

namespace ssp
{

/** Conventional full-page shadow paging. */
class ShadowPagingBackend : public BaselineBase
{
  public:
    explicit ShadowPagingBackend(const SspConfig &cfg);

    const char *name() const override { return "SHADOW"; }
    void store(CoreId core, Addr vaddr, const void *buf,
               std::uint64_t size) override;
    void load(CoreId core, Addr vaddr, void *buf,
              std::uint64_t size) override;
    void commit(CoreId core) override;
    void abort(CoreId core) override;
    void recover() override;
    std::uint64_t loggingWrites() const override;

  protected:
    void onCrash() override;

  private:
    void storeLine(CoreId core, Addr vaddr, const void *buf,
                   std::uint64_t size);

    /** Shadow page for a touched vpn, or the committed translation. */
    Ppn activePpn(CoreId core, Vpn vpn);

    /** Per-core: vpn -> shadow ppn for pages touched by the open tx. */
    std::vector<std::unordered_map<Vpn, Ppn>> shadow_;
    /** Mapping journal (shared; one per-commit flush). */
    BaselineLog mapJournal_;
    FreePagePool pool_;
};

} // namespace ssp

#endif // SSP_BASELINES_SHADOW_PAGING_HH
