/**
 * @file
 * UNDO-LOG: the naive hardware undo-logging baseline of the paper's
 * evaluation (section 5.1).
 *
 * Semantics: the first atomic store to a cache line in a transaction
 * reads the old line, writes an undo record (old data + address) to the
 * per-core log, and *blocks until the record reaches NVRAM* — undo
 * logging requires log-before-data ordering.  Data is then updated in
 * place.  A log buffer dedups repeated updates to the same line.  Commit
 * flushes the write-set lines (critical path), persists a commit marker
 * and truncates the log.  Recovery rolls back transactions without a
 * commit marker by re-applying the logged old values, newest first.
 */

#ifndef SSP_BASELINES_UNDO_LOG_HH
#define SSP_BASELINES_UNDO_LOG_HH

#include <vector>

#include "baselines/baseline_base.hh"

namespace ssp
{

/** The hardware undo-logging design. */
class UndoLogBackend : public BaselineBase
{
  public:
    explicit UndoLogBackend(const SspConfig &cfg);

    const char *name() const override { return "UNDO-LOG"; }
    void store(CoreId core, Addr vaddr, const void *buf,
               std::uint64_t size) override;
    void commit(CoreId core) override;
    void abort(CoreId core) override;
    void recover() override;
    std::uint64_t loggingWrites() const override;

    BaselineLog &log(CoreId core) { return logs_[core]; }

  protected:
    void onCrash() override {}

  private:
    /** Functional rollback of one core's unfinished transaction. */
    void rollback(BaselineLog &log);

    std::vector<BaselineLog> logs_;
};

} // namespace ssp

#endif // SSP_BASELINES_UNDO_LOG_HH
