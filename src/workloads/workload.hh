/**
 * @file
 * The workload interface the driver and benches run against.
 *
 * Each workload wraps a persistent data structure built over an
 * AtomicityBackend; one operation is one durable transaction (the
 * paper's microbenchmarks wrap each insert/delete/swap in a transaction,
 * section 5.1).  Workloads keep a host-side reference model so their
 * contents can be verified functionally after a run or after a crash.
 * The keyed ones (B-tree, RB-tree, hash, Memcached) keep it as a dense
 * KeyedReference over their key space, which costs 8 bytes plus one
 * bit per key of host memory however few keys are present: 256 KiB +
 * 4 KiB at keySpace 32,768, the largest any grid runs.  Vacation keeps
 * two flat vectors, 8 bytes per tuple and per customer.
 */

#ifndef SSP_WORKLOADS_WORKLOAD_HH
#define SSP_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <string>

#include "common/logging.hh"
#include "common/types.hh"
#include "core/backend.hh"
#include "workloads/persist_alloc.hh"
#include "workloads/tx_heap.hh"

namespace ssp
{

class Workload;

/**
 * Commit-control hook for distributed transactions (src/shard/).  When
 * installed, runTx executes begin + body once and then hands the commit
 * decision to the hook instead of running the local
 * validate/commit-or-retry loop: the hook must either commit the open
 * transaction (possibly after cross-shard coordination) or abort it
 * through the backend and throw, so the exception unwinds out of runOp
 * before any host-side reference model is touched.  Without a hook the
 * single-machine path is untouched.
 */
class TxControlHook
{
  public:
    virtual ~TxControlHook() = default;

    /** @p w's transaction on @p core has executed its body and is open
     *  (begun, unvalidated).  Commit it or abort-and-throw. */
    virtual void onExecuted(Workload &w, CoreId core) = 0;
};

/** One benchmark workload bound to a backend. */
class Workload
{
  public:
    Workload(AtomicityBackend &be, PersistAlloc &alloc)
        : heap_(be), alloc_(alloc)
    {
    }
    virtual ~Workload() = default;

    /** Workload name as printed in the paper's figures. */
    virtual const char *name() const = 0;

    /**
     * Populate the initial state as ordinary transactions on core 0.
     * Every override opens a Machine::SetupPhase on its first line:
     * the peers are idle, so the prefill logs no conflicts and skips
     * peer coherence.  Closing the phase sets a horizon at core 0's
     * clock, and every later transaction must begin above it — the
     * clock barrier (Machine::syncClocks) each driver runs before the
     * first operation guarantees that.  Drivers measure their run as
     * deltas over the counters setup leaves.
     *
     * The B-tree, RB-tree and hash prefills draw keySpace/2 keys from
     * the workload's generator and run each through upsertOrDelete,
     * the operation runOp measures: a key drawn a second time is
     * deleted again.  The structure therefore holds fewer than
     * keySpace/2 keys — at keySpace 4096, 1274 in the B-tree after the
     * Rand prefill and 638 after the Zipf one.  How full it should be
     * belongs with matching Table 3's write sets, an open ROADMAP item.
     */
    virtual void setup() = 0;

    /** Execute one operation == one durable transaction on @p core. */
    virtual void runOp(CoreId core) = 0;

    /**
     * Functional self-check against the reference model (untimed reads).
     * @return true when the persistent image matches.
     */
    virtual bool verify() = 0;

    AtomicityBackend &backend() { return heap_.backend(); }

    /**
     * Partition the key space per core (the "scale" grid's partitioned
     * scenario); 1 = shared.  Workloads without keys ignore it.
     */
    void setKeyShards(unsigned shards) { keyShards_ = shards; }
    unsigned keyShards() const { return keyShards_; }

    /**
     * Install (or clear, with nullptr) the distributed commit-control
     * hook; not owned.  See TxControlHook.
     */
    void setTxControl(TxControlHook *hook) { txControl_ = hook; }
    TxControlHook *txControl() const { return txControl_; }

  protected:
    /**
     * Run one durable operation under concurrent conflict handling:
     * begin, execute @p body, validate against peer commits that landed
     * inside the transaction's window, and commit — or, on a conflict,
     * roll back through the backend's abort machinery, charge the abort
     * penalty plus exponential backoff, and re-execute.
     *
     * @p body must be re-executable: all persistent state is restored
     * by the abort path, so host-side effects (reference-model updates,
     * RNG draws) belong before or after runTx, never inside the body.
     * Allocations made by an aborted attempt leak address space only —
     * the allocator is volatile host metadata (see PersistAlloc).
     *
     * With one core validation always passes
     * and this is exactly the old begin/body/commit sequence.
     */
    template <typename BodyFn>
    void
    runTx(CoreId core, BodyFn &&body)
    {
        AtomicityBackend &be = backend();
        if (txControl_ != nullptr) {
            // Distributed commit control: execute once and delegate the
            // commit decision.  The hook either commits here or aborts
            // through the backend and throws past this frame — so an
            // aborted attempt never returns, and the caller's post-runTx
            // reference-model update never happens for it.
            be.begin(core);
            body();
            txControl_->onExecuted(*this, core);
            return;
        }
        Machine &m = be.machine();
        ConflictManager &cm = m.conflicts();
        for (unsigned attempt = 1;; ++attempt) {
            be.begin(core);
            body();
            if (cm.validate(core, m.clock(core))) {
                be.commit(core);
                return;
            }
            be.abort(core);
            m.clock(core) += cm.retryPenalty(core, attempt);
            // Each retry begins after its abort point, so any logged
            // peer commit can defeat it at most once.
            ssp_assert(attempt < 1000, "conflict retry livelock");
        }
    }

    /**
     * Map a drawn key into @p core's shard of [0, key_space).  Identity
     * when sharding is off, so single-core streams are untouched.
     */
    std::uint64_t
    shardKey(CoreId core, std::uint64_t key, std::uint64_t key_space) const
    {
        if (keyShards_ <= 1)
            return key;
        const std::uint64_t shard = key_space / keyShards_;
        ssp_assert(shard > 0,
                   "more key shards than keys: shrink keyShards or grow "
                   "the key space");
        return key % shard + (core % keyShards_) * shard;
    }

    /**
     * Bound on one walk over persistent pointers: a chain, list or
     * tree traversal whose trip count the image decides.  Every node a
     * walk can reach is a distinct allocation of at least 8 bytes, so a
     * sound image never needs more than alloc_.bytesUsed() / 8 hops; a
     * corrupted one can link a node back to itself.  Each such loop
     * counts its hops here, and past the bound it panics, so a cell
     * reports "ok": false instead of spinning.  Host-only: it issues
     * no simulated access and charges no cycle.
     */
    class HopLimit
    {
      public:
        explicit HopLimit(const PersistAlloc &alloc)
            : limit_(alloc.bytesUsed() / 8)
        {
        }

        /** Count one hop. */
        void
        operator()()
        {
            if (++hops_ > limit_) {
                ssp_panic("a walk over persistent pointers passed %llu "
                          "hops: the image is corrupted",
                          static_cast<unsigned long long>(limit_));
            }
        }

      private:
        std::uint64_t limit_;
        std::uint64_t hops_ = 0;
    };

    TxHeap heap_;
    PersistAlloc &alloc_;
    unsigned keyShards_ = 1;
    TxControlHook *txControl_ = nullptr;
};

} // namespace ssp

#endif // SSP_WORKLOADS_WORKLOAD_HH
