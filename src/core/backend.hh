/**
 * @file
 * The failure-atomicity backend interface.
 *
 * Each evaluated design — SSP, hardware undo logging (UNDO-LOG), DHTM-
 * style hardware redo logging (REDO-LOG) and conventional shadow paging
 * (the ablation) — implements this interface on top of the shared
 * Machine substrate, so workloads and benches are design-agnostic.
 *
 * The interface mirrors the paper's programming model (section 3.1):
 * ATOMIC_BEGIN / ATOMIC_STORE / ATOMIC_END, plus loads, a raw
 * (non-failure-atomic) store for heap initialization, and crash/recover
 * hooks for the fault-injection tests.
 *
 * Functional accesses are line-granular: every load, store, loadRaw
 * and storeRaw covers a non-empty span inside one cache line, the unit
 * SSP's bitmaps track and the undo/redo logs record.  Each backend
 * checks it (a line-crossing span throws std::logic_error in every
 * build type).  TxHeap::loadBytes/storeBytes split wider spans.
 */

#ifndef SSP_CORE_BACKEND_HH
#define SSP_CORE_BACKEND_HH

#include <cstdint>
#include <stdexcept>

#include "common/stats.hh"
#include "common/types.hh"
#include "core/machine.hh"

namespace ssp
{

/**
 * Thrown when a transaction exceeds the bounded hardware resources
 * (write-set buffer).  The paper's fall-back path transfers control to a
 * software handler; the simulator surfaces it so callers can size
 * workloads or invoke their own fallback.
 */
class TxOverflow : public std::runtime_error
{
  public:
    explicit TxOverflow(const char *what) : std::runtime_error(what) {}
};

/** Per-transaction write-set statistics (paper Table 3). */
struct TxCharacterization
{
    StatSummary linesPerTx;
    StatSummary pagesPerTx;
};

/** A failure-atomicity design under test. */
class AtomicityBackend
{
  public:
    virtual ~AtomicityBackend() = default;

    /** Design name for reports ("SSP", "UNDO-LOG", ...). */
    virtual const char *name() const = 0;

    /** ATOMIC_BEGIN: start a failure-atomic section on @p core. */
    virtual void begin(CoreId core) = 0;

    /**
     * ATOMIC_END: make every store of the section durable, all or
     * nothing.  When this returns, the transaction is acknowledged.
     */
    virtual void commit(CoreId core) = 0;

    /** Roll back the ongoing section. */
    virtual void abort(CoreId core) = 0;

    /** True while a failure-atomic section is open on @p core. */
    virtual bool inTx(CoreId core) const = 0;

    /** Timed load of @p size bytes at persistent virtual address;
     *  the span stays within one cache line. */
    virtual void load(CoreId core, Addr vaddr, void *buf,
                      std::uint64_t size) = 0;

    /** ATOMIC_STORE: timed failure-atomic store within one cache
     *  line; must be inside a tx. */
    virtual void store(CoreId core, Addr vaddr, const void *buf,
                       std::uint64_t size) = 0;

    /**
     * Non-failure-atomic initialization store (untimed, used to build
     * the initial heap image before measurement; the image is treated
     * as the first committed state).  One cache line per call.
     */
    virtual void storeRaw(Addr vaddr, const void *buf,
                          std::uint64_t size) = 0;

    /** Untimed functional read within one cache line (verification
     *  paths). */
    virtual void loadRaw(Addr vaddr, void *buf, std::uint64_t size) = 0;

    /** Simulated power failure: all volatile state disappears. */
    virtual void crash() = 0;

    /** Post-crash recovery; afterwards committed data is readable. */
    virtual void recover() = 0;

    /** The underlying machine (clock, bus counters, ...). */
    virtual Machine &machine() = 0;

    /**
     * NVRAM line writes attributable to the consistency mechanism
     * (Figure 6's "logging writes": log/journal/checkpoint traffic).
     */
    virtual std::uint64_t loggingWrites() const = 0;

    /** Committed transactions so far. */
    virtual std::uint64_t committedTxs() const = 0;

    /** Write-set characterization of committed transactions. */
    virtual const TxCharacterization &characterization() const = 0;
};

} // namespace ssp

#endif // SSP_CORE_BACKEND_HH
