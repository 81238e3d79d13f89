/**
 * @file
 * Host-performance benchmark driver: runs one named workload — a fixed
 * subset of a checked-in sweep grid — for a fixed number of passes in
 * one process on one thread, and prints one JSON document with every
 * pass's phase times, simulated totals and per-cell report metrics.
 * run.py (next to this file) builds it, runs it once per workload,
 * checks the metrics against the checked-in grids and reduces the
 * passes to medians.
 *
 *   ssp_perf --workload paper-c1 [--seed 42] [--passes 1]
 *            [--trace] [--trace-out FILE] [--smoke]
 *
 * Each cell runs through the same public calls sweep_runner.cc's
 * runOneCell makes, with a span around each phase: make_backend and
 * setup (or cluster_setup), run / serve / cluster_run, verify, report.
 * --trace first runs one untraced pass — the reference for the traced
 * passes' simulated metrics and for the tracing overhead — and then
 * traced passes that install forwarding decorators on the backend, the
 * workload and the fault harness, adding per-op, per-backend-call and
 * per-slot timing plus per-layer simulated counters.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "fault/fault_injector.hh"
#include "serve/server.hh"
#include "shard/shard_driver.hh"
#include "sim/driver.hh"
#include "sim/report.hh"
#include "sweep/sweep_runner.hh"

using namespace ssp;
using sweep::CellResult;
using sweep::SweepCell;
using Clock = std::chrono::steady_clock;

namespace
{

/** The ordinals sweep_runner.cc derives a cell's arrival and routing
 *  streams from; a different value would make no cell match its
 *  checked-in report entry. */
constexpr std::uint64_t kArrivalSeedOrdinal = 101;
constexpr std::uint64_t kRouteSeedOrdinal = 211;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- workloads -------------------------------------------------------

/** One benchmark workload: a predicate over one checked-in grid. */
struct PerfWorkload
{
    const char *name;
    const char *figure;
    bool (*keep)(const SweepCell &);
};

bool
zipfWorkload(WorkloadKind w)
{
    return w == WorkloadKind::BTreeZipf || w == WorkloadKind::HashZipf ||
           w == WorkloadKind::RbTreeZipf;
}

/** Why each subset was chosen is recorded in README.md and
 *  BENCHMARK.json; the cell counts are 21, 18, 18, 12 and 18. */
const PerfWorkload kWorkloads[] = {
    {"paper-c1", "fig5",
     [](const SweepCell &c) { return c.cores == 1; }},
    {"contended-c64", "scale64",
     [](const SweepCell &c) {
         return (c.cores == 16 || c.cores == 64) && zipfWorkload(c.workload);
     }},
    {"mesh-c256", "scale256",
     [](const SweepCell &c) {
         return (c.cores == 128 || c.cores == 256) &&
                c.coherenceMode == CoherenceMode::Directory;
     }},
    {"serve-c16", "queue",
     [](const SweepCell &c) {
         return c.cores == 16 && c.backend == BackendKind::Ssp;
     }},
    {"cluster-fault", "fault",
     [](const SweepCell &c) { return c.machines == 4 && c.faultRate == 20; }},
};

// ---- spans -----------------------------------------------------------

/**
 * In-memory span recorder.  Spans nest on a stack: a span's parent is
 * the span open when it began.  Work timed without a span of its own
 * (backend calls) is folded into the open span's child time, so a
 * span's self time is always its duration minus its children's.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name = "";
        double startUs = 0;
        double durUs = -1; ///< stays -1 if a throw abandoned the span
        double childUs = 0;
        int parent = -1;
        std::string detail;
    };

    int
    begin(const char *name, std::string detail = {})
    {
        spans_.push_back({name, nowUs(), -1, 0, open_, std::move(detail)});
        open_ = static_cast<int>(spans_.size()) - 1;
        return open_;
    }

    void
    end(int idx)
    {
        Span &s = spans_[idx];
        s.durUs = nowUs() - s.startUs;
        open_ = s.parent;
        if (open_ >= 0)
            spans_[open_].childUs += s.durUs;
    }

    void
    addChildTime(double us)
    {
        if (open_ >= 0)
            spans_[open_].childUs += us;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         epoch_)
            .count();
    }

    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    int open_ = -1;
};

class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, std::string detail = {})
        : tracer_(tracer), idx_(tracer.begin(name, std::move(detail)))
    {
    }
    ~ScopedSpan() { tracer_.end(idx_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
    int idx_;
};

/** Module (layer) each span name belongs to. */
const char *
spanLayer(std::string_view name)
{
    if (name == "setup" || name == "verify" || name == "op")
        return "workloads";
    if (name == "serve")
        return "serve";
    if (name == "cluster_setup" || name == "cluster_run" || name == "slot")
        return "shard";
    if (name == "fault")
        return "fault";
    if (name == "cell")
        return "sweep";
    return "sim";
}

/** Per-name totals over one pass's closed spans. */
struct SpanTotals
{
    double totalS = 0;
    double selfS = 0;
    std::vector<double> durUs;
};

using SpanSummary = std::map<std::string_view, SpanTotals>;

/** Totals per span name; @p serve_ops counts ops run inside a serve
 *  span (calibration and served requests). */
SpanSummary
summarize(const Tracer &tracer, std::uint64_t &serve_ops)
{
    SpanSummary out;
    const auto &spans = tracer.spans();
    for (const Tracer::Span &s : spans) {
        if (s.durUs < 0)
            continue;
        SpanTotals &t = out[s.name];
        t.totalS += s.durUs * 1e-6;
        t.selfS += (s.durUs - s.childUs) * 1e-6;
        t.durUs.push_back(s.durUs);
        if (s.parent >= 0 && std::string_view(s.name) == "op" &&
            std::string_view(spans[s.parent].name) == "serve")
            ++serve_ops;
    }
    return out;
}

/** Nearest-rank percentile; 0 for an empty sample. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

/** Chrome trace-event JSON ("X" complete events, microseconds). */
bool
writeChromeTrace(const std::string &path,
                 const std::vector<Tracer::Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    bool first = true;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Tracer::Span &s = spans[i];
        if (s.durUs < 0)
            continue;
        int root = static_cast<int>(i);
        while (spans[root].parent >= 0)
            root = spans[root].parent;
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                     "\"args\":{\"id\":%zu,\"parent\":%d,\"cell\":%d,"
                     "\"self_us\":%.3f,\"child_us\":%.3f",
                     first ? "" : ",", s.name, spanLayer(s.name), s.startUs,
                     s.durUs, i, s.parent, root, s.durUs - s.childUs,
                     s.childUs);
        if (!s.detail.empty())
            std::fprintf(f, ",\"label\":%s",
                         Json::str(s.detail).dump().c_str());
        std::fputs("}}", f);
        first = false;
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

// ---- decorators ------------------------------------------------------

enum BackendCall { kLoad, kStore, kCommit, kAbort, kNumCalls };

constexpr const char *kCallNames[kNumCalls] = {"load", "store", "commit",
                                               "abort"};

/** Host time and call count per backend entry point. */
struct CallTimes
{
    std::array<double, kNumCalls> seconds{};
    std::array<std::uint64_t, kNumCalls> calls{};
};

/** Layer name of a design's backend calls. */
const char *
backendLayer(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Ssp:
        return "core.ssp";
      case BackendKind::UndoLog:
        return "baselines.undo";
      case BackendKind::RedoLog:
        return "baselines.redo";
      case BackendKind::Shadow:
        return "baselines.shadow";
    }
    return "baselines.unknown";
}

/** Every design, in enum order: PassState::calls is indexed by the
 *  BackendKind value. */
constexpr BackendKind kBackendKinds[] = {
    BackendKind::Ssp, BackendKind::UndoLog, BackendKind::RedoLog,
    BackendKind::Shadow};

/** Forwards every call to the wrapped design; once armed (after
 *  setup), times the four transactional entry points. */
class TimedBackend final : public AtomicityBackend
{
  public:
    TimedBackend(std::unique_ptr<AtomicityBackend> inner, CallTimes &times,
                 Tracer &tracer)
        : inner_(std::move(inner)), times_(times), tracer_(tracer)
    {
    }

    void arm() { armed_ = true; }

    const char *name() const override { return inner_->name(); }
    void begin(CoreId core) override { inner_->begin(core); }
    void
    commit(CoreId core) override
    {
        timed(kCommit, [&] { inner_->commit(core); });
    }
    void
    abort(CoreId core) override
    {
        timed(kAbort, [&] { inner_->abort(core); });
    }
    bool inTx(CoreId core) const override { return inner_->inTx(core); }
    void
    load(CoreId core, Addr vaddr, void *buf, std::uint64_t size) override
    {
        timed(kLoad, [&] { inner_->load(core, vaddr, buf, size); });
    }
    void
    store(CoreId core, Addr vaddr, const void *buf,
          std::uint64_t size) override
    {
        timed(kStore, [&] { inner_->store(core, vaddr, buf, size); });
    }
    void
    storeRaw(Addr vaddr, const void *buf, std::uint64_t size) override
    {
        inner_->storeRaw(vaddr, buf, size);
    }
    void
    loadRaw(Addr vaddr, void *buf, std::uint64_t size) override
    {
        inner_->loadRaw(vaddr, buf, size);
    }
    void crash() override { inner_->crash(); }
    void recover() override { inner_->recover(); }
    Machine &machine() override { return inner_->machine(); }
    std::uint64_t
    loggingWrites() const override
    {
        return inner_->loggingWrites();
    }
    std::uint64_t
    committedTxs() const override
    {
        return inner_->committedTxs();
    }
    const TxCharacterization &
    characterization() const override
    {
        return inner_->characterization();
    }

  private:
    template <typename Fn>
    void
    timed(BackendCall call, Fn &&fn)
    {
        if (!armed_) {
            fn();
            return;
        }
        const auto start = Clock::now();
        fn();
        const double s = secondsSince(start);
        times_.seconds[call] += s;
        ++times_.calls[call];
        tracer_.addChildTime(s * 1e6);
    }

    std::unique_ptr<AtomicityBackend> inner_;
    CallTimes &times_;
    Tracer &tracer_;
    bool armed_ = false;
};

/** Forwards to the wrapped workload with one "op" span per runOp. */
class TimedWorkload final : public Workload
{
  public:
    TimedWorkload(std::unique_ptr<Workload> inner, PersistAlloc &alloc,
                  Tracer &tracer)
        : Workload(inner->backend(), alloc), inner_(std::move(inner)),
          tracer_(tracer)
    {
    }

    const char *name() const override { return inner_->name(); }
    void setup() override { inner_->setup(); }
    void
    runOp(CoreId core) override
    {
        ScopedSpan span(tracer_, "op");
        inner_->runOp(core);
    }
    bool verify() override { return inner_->verify(); }

  private:
    std::unique_ptr<Workload> inner_;
    Tracer &tracer_;
};

/**
 * Forwards both fault-harness surfaces to the cell's FaultInjector with
 * a "fault" span around every call, and opens one "slot" span per
 * coordinator slot (from one atSlotStart to the next, the last one
 * closed by atRunEnd).
 */
class TimedFaultDriver final : public shard::TxFaultHooks,
                               public shard::ClusterFaultDriver
{
  public:
    TimedFaultDriver(fault::FaultInjector &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    Cycles
    sendReliable(unsigned src, unsigned dst, std::uint64_t bytes) override
    {
        return timed([&] { return inner_.sendReliable(src, dst, bytes); });
    }
    Cycles
    persistDecision(unsigned home, CoreId core) override
    {
        return timed([&] { return inner_.persistDecision(home, core); });
    }
    Cycles
    shipCommit(unsigned machine, CoreId core) override
    {
        return timed([&] { return inner_.shipCommit(machine, core); });
    }
    bool
    coordinatorCrashArmed(unsigned home) override
    {
        return timed([&] { return inner_.coordinatorCrashArmed(home); });
    }
    void
    failCoordinator(unsigned home, unsigned peer, CoreId core) override
    {
        timed([&] { inner_.failCoordinator(home, peer, core); });
    }
    bool
    participantCrashArmed(unsigned peer) override
    {
        return timed([&] { return inner_.participantCrashArmed(peer); });
    }
    void
    failParticipant(unsigned peer, CoreId core) override
    {
        timed([&] { inner_.failParticipant(peer, core); });
    }
    Cycles
    voteTimeout() override
    {
        return timed([&] { return inner_.voteTimeout(); });
    }

    shard::TxFaultHooks *txHooks() override { return this; }
    void
    atSlotStart() override
    {
        if (slot_ >= 0)
            tracer_.end(slot_);
        slot_ = tracer_.begin("slot");
        timed([&] { inner_.atSlotStart(); });
    }
    void
    atRunEnd() override
    {
        if (slot_ >= 0)
            tracer_.end(slot_);
        slot_ = -1;
        timed([&] { inner_.atRunEnd(); });
    }

  private:
    template <typename Fn>
    std::invoke_result_t<Fn &>
    timed(Fn &&fn)
    {
        ScopedSpan span(tracer_, "fault");
        return fn();
    }

    fault::FaultInjector &inner_;
    Tracer &tracer_;
    int slot_ = -1;
};

// ---- simulated counters ----------------------------------------------

/** Simulated per-layer counters, named by the metric each one feeds. */
enum Counter
{
    kCommits,
    kAborts,
    kRetries,
    kBackoffCycles,
    kL1Misses,
    kL2Misses,
    kL3Misses,
    kCoherenceMessages,
    kInvalidations,
    kShootdowns,
    kTlbMisses,
    kDirectoryLookups,
    kSnoopFilterEvictions,
    kBackInvalidations,
    kHopCycles,
    kNvramReads,
    kWritesData,
    kWritesUndoLog,
    kWritesRedoLog,
    kWritesJournal,
    kWritesConsolidation,
    kWritesCheckpoint,
    kNumCounters
};

constexpr const char *kCounterNames[kNumCounters] = {
    "core.conflict.commits",
    "core.conflict.aborts",
    "core.conflict.retries",
    "core.conflict.backoff_cycles",
    "cache.l1_misses",
    "cache.l2_misses",
    "cache.l3_misses",
    "cache.coherence_messages",
    "cache.invalidations",
    "cache.shootdowns",
    "vm.tlb_misses",
    "interconnect.directory_lookups",
    "interconnect.snoop_filter_evictions",
    "interconnect.back_invalidations",
    "interconnect.hop_cycles",
    "mem.nvram_reads",
    "mem.nvram_writes.data",
    "mem.nvram_writes.undo_log",
    "mem.nvram_writes.redo_log",
    "mem.nvram_writes.journal",
    "mem.nvram_writes.consolidation",
    "mem.nvram_writes.checkpoint",
};

using Counters = std::array<std::uint64_t, kNumCounters>;

Counters
readCounters(AtomicityBackend &be)
{
    Machine &m = be.machine();
    CacheHierarchy &caches = m.caches();
    const CoherenceModel &coh = m.coherence();
    const MemoryBus &bus = m.bus();
    const ConflictStats &conflicts = m.conflicts().stats();
    Counters c{};
    c[kCommits] = be.committedTxs();
    c[kAborts] = conflicts.aborts;
    c[kRetries] = conflicts.retries;
    c[kBackoffCycles] = conflicts.backoffCycles;
    for (CoreId core = 0; core < m.cfg().numCores; ++core) {
        c[kL1Misses] += caches.l1(core).misses();
        c[kL2Misses] += caches.l2(core).misses();
        c[kTlbMisses] += m.tlb(core).misses();
    }
    c[kL3Misses] = caches.l3().misses();
    c[kCoherenceMessages] = coh.messages();
    c[kInvalidations] = coh.invalidations();
    c[kShootdowns] = coh.shootdownsDelivered();
    c[kDirectoryLookups] = coh.directoryLookups();
    c[kSnoopFilterEvictions] = coh.snoopFilterEvictions();
    c[kBackInvalidations] = coh.backInvalidations();
    c[kHopCycles] = coh.hopTraversalCycles();
    c[kNvramReads] = bus.nvramReads();
    c[kWritesData] = bus.nvramWrites(WriteCategory::Data);
    c[kWritesUndoLog] = bus.nvramWrites(WriteCategory::UndoLog);
    c[kWritesRedoLog] = bus.nvramWrites(WriteCategory::RedoLog);
    c[kWritesJournal] = bus.nvramWrites(WriteCategory::MetaJournal);
    c[kWritesConsolidation] = bus.nvramWrites(WriteCategory::Consolidation);
    c[kWritesCheckpoint] = bus.nvramWrites(WriteCategory::Checkpoint);
    return c;
}

/** Accumulates @p after - @p before into @p sum. */
void
addDelta(Counters &sum, const Counters &before, const Counters &after)
{
    for (int i = 0; i < kNumCounters; ++i)
        sum[i] += after[i] - before[i];
}

// ---- one pass --------------------------------------------------------

/** Everything the decorators and counters accumulate over one pass. */
struct PassState
{
    bool traced = false;
    Tracer tracer;
    std::array<CallTimes, std::size(kBackendKinds)> calls{};
    Counters counters{};
    std::vector<CellResult> results;
};

/** Run one cell the way sweep_runner.cc's runOneCell does, with a span
 *  per phase, then verify it and build its report entry. */
Json
runCell(const SweepCell &cell, PassState &ps)
{
    Tracer &tr = ps.tracer;
    ScopedSpan cell_span(tr, "cell", cell.label());
    CellResult res;
    res.cell = cell;
    bool verified = false;
    try {
        const bool faulty = cell.faultRate > 0 || cell.replicate;
        if (cell.machines > 1 || faulty) {
            // Decorators stay off the shards: the coordinator installs
            // its commit hook with the non-virtual setTxControl.
            std::unique_ptr<shard::Cluster> cluster;
            std::unique_ptr<fault::FaultInjector> inj;
            {
                ScopedSpan span(tr, "cluster_setup");
                cluster = std::make_unique<shard::Cluster>(
                    cell.backend, cell.workload, cell.config(), cell.scale,
                    cell.machines);
                if (faulty) {
                    fault::FaultParams fp;
                    fp.ratePerMcycle = cell.faultRate;
                    fp.replicate = cell.replicate;
                    fp.seed = sweep::deriveCellSeed(
                        cell.scale.seed, fault::kFaultSeedOrdinal);
                    inj = std::make_unique<fault::FaultInjector>(
                        *cluster, fp,
                        sweep::deriveCellSeed(cell.scale.seed,
                                              fault::kNetFaultSeedOrdinal),
                        cell.crossShardFraction);
                }
            }
            std::optional<TimedFaultDriver> timed;
            shard::ClusterFaultDriver *driver = inj.get();
            if (ps.traced && inj != nullptr)
                driver = &timed.emplace(*inj, tr);
            std::vector<Counters> before;
            for (unsigned m = 0; m < cluster->machines(); ++m)
                before.push_back(readCounters(*cluster->shard(m).backend));
            shard::ShardRunResult sr;
            {
                ScopedSpan span(tr, "cluster_run");
                sr = shard::runClusterExperiment(
                    *cluster, cell.txs, cell.cores, cell.crossShardFraction,
                    sweep::deriveCellSeed(cell.scale.seed,
                                          kRouteSeedOrdinal),
                    driver);
            }
            for (unsigned m = 0; m < cluster->machines(); ++m) {
                addDelta(ps.counters, before[m],
                         readCounters(*cluster->shard(m).backend));
            }
            res.run = std::move(sr.aggregate);
            res.shardRuns = std::move(sr.shards);
            res.shardTx = sr.tx;
            res.networkMessages = sr.networkMessages;
            res.networkCycles = sr.networkCycles;
            if (inj != nullptr)
                res.faultStats = inj->stats();
            ScopedSpan span(tr, "verify");
            verified = true;
            for (unsigned m = 0; m < cluster->machines(); ++m)
                verified = cluster->shard(m).workload->verify() && verified;
        } else {
            const SspConfig cfg = cell.config();
            Experiment exp;
            {
                ScopedSpan span(tr, "make_backend");
                exp.backend = makeBackend(cell.backend, cfg);
            }
            TimedBackend *timed = nullptr;
            {
                ScopedSpan span(tr, "setup");
                if (ps.traced) {
                    auto wrapped = std::make_unique<TimedBackend>(
                        std::move(exp.backend),
                        ps.calls[static_cast<std::size_t>(cell.backend)],
                        tr);
                    timed = wrapped.get();
                    exp.backend = std::move(wrapped);
                }
                // Same heap layout as buildExperiment: page 0 stays
                // unused as a null guard.
                exp.alloc = std::make_unique<PersistAlloc>(
                    kPageSize, cfg.heapPages * kPageSize);
                exp.workload = makeWorkload(cell.workload, *exp.backend,
                                            *exp.alloc, cell.scale);
                if (ps.traced) {
                    exp.workload = std::make_unique<TimedWorkload>(
                        std::move(exp.workload), *exp.alloc, tr);
                }
                exp.workload->setup();
            }
            // Backend calls are timed in the run phase only; setup's
            // calls are part of workloads.setup_s.
            if (timed != nullptr)
                timed->arm();
            const Counters before = readCounters(*exp.backend);
            if (cell.offeredLoad > 0) {
                ScopedSpan span(tr, "serve");
                serve::ServeParams params;
                params.arrival = cell.arrival;
                params.offeredLoad = cell.offeredLoad;
                params.seed = sweep::deriveCellSeed(cell.scale.seed,
                                                    kArrivalSeedOrdinal);
                res.run = serve::runServeExperiment(exp, cell.txs,
                                                    cell.cores, params);
            } else {
                ScopedSpan span(tr, "run");
                res.run = runExperiment(exp, cell.txs, cell.cores);
            }
            addDelta(ps.counters, before, readCounters(*exp.backend));
            ScopedSpan span(tr, "verify");
            verified = exp.workload->verify();
        }
        res.ok = true;
    } catch (const std::exception &e) {
        res.error = e.what();
    }

    Json doc = Json::object();
    {
        ScopedSpan span(tr, "report");
        std::vector<CellResult> one(1);
        one[0] = std::move(res);
        const Json report = sweep::sweepReport(cell.figure, one);
        const Json &entry = report["cells"].at(0);
        doc.set("label", entry["label"]);
        doc.set("ok", entry["ok"]);
        doc.set("verified", Json::boolean(verified));
        if (entry.has("error"))
            doc.set("error", entry["error"]);
        else
            doc.set("metrics", entry["metrics"]);
        res = std::move(one[0]);
    }
    ps.results.push_back(std::move(res));
    return doc;
}

/** Per-layer metrics of one traced pass, by metric name. */
Json
layerMetrics(const PassState &ps, const SpanSummary &spans,
             std::uint64_t serve_ops)
{
    Json out = Json::object();
    auto span = [&](std::string_view name) -> const SpanTotals & {
        static const SpanTotals none;
        const auto it = spans.find(name);
        return it == spans.end() ? none : it->second;
    };
    auto put = [&](const std::string &name, double v) {
        out.set(name, Json::number(v));
    };

    put("sim.make_backend_s", span("make_backend").totalS);
    put("sim.driver_self_s", span("run").selfS);
    put("sim.report_s", span("report").totalS);
    put("workloads.setup_s", span("setup").totalS);
    put("workloads.op_self_s", span("op").selfS);
    put("workloads.op_us_p50", percentile(span("op").durUs, 0.50));
    put("workloads.op_us_p99", percentile(span("op").durUs, 0.99));
    put("workloads.verify_s", span("verify").totalS);
    put("workloads.ops", static_cast<double>(span("op").durUs.size()));

    for (std::size_t k = 0; k < std::size(kBackendKinds); ++k) {
        const std::string layer = backendLayer(kBackendKinds[k]);
        for (int c = 0; c < kNumCalls; ++c) {
            put(layer + "." + kCallNames[c] + "_s", ps.calls[k].seconds[c]);
            put(layer + "." + kCallNames[c] + "s",
                static_cast<double>(ps.calls[k].calls[c]));
        }
    }

    for (int i = 0; i < kNumCounters; ++i)
        put(kCounterNames[i], static_cast<double>(ps.counters[i]));
    const double attempts =
        static_cast<double>(ps.counters[kCommits] + ps.counters[kAborts]);
    put("core.conflict.commit_ratio",
        attempts > 0 ? static_cast<double>(ps.counters[kCommits]) / attempts
                     : 0);

    double served = 0, requests = 0, rejected = 0, p99 = 0, depth = 0;
    unsigned serve_cells = 0;
    shard::ShardTxStats tx{};
    std::uint64_t network_messages = 0;
    fault::FaultStats fs{};
    for (const CellResult &r : ps.results) {
        if (r.cell.offeredLoad > 0) {
            ++serve_cells;
            served += static_cast<double>(r.run.committedTxs);
            requests += static_cast<double>(r.cell.txs);
            rejected += static_cast<double>(r.run.rejectedTxs);
            p99 += static_cast<double>(r.run.p99Cycles);
            depth += r.run.meanQueueDepth;
        }
        tx.crossShardTxs += r.shardTx.crossShardTxs;
        tx.prepareRoundTrips += r.shardTx.prepareRoundTrips;
        tx.coordinatorStallCycles += r.shardTx.coordinatorStallCycles;
        tx.crossShardAborts += r.shardTx.crossShardAborts;
        network_messages += r.networkMessages;
        fs.powerFails += r.faultStats.powerFails;
        fs.recoveries += r.faultStats.recoveries;
        fs.failovers += r.faultStats.failovers;
        fs.recoveryStallCycles += r.faultStats.recoveryStallCycles;
        fs.failoverStallCycles += r.faultStats.failoverStallCycles;
        fs.rpcRetries += r.faultStats.rpcRetries;
        fs.messagesLost += r.faultStats.messagesLost;
    }
    const double per_cell = serve_cells > 0 ? 1.0 / serve_cells : 0;
    put("serve.self_s", span("serve").selfS);
    put("serve.calibration_ops", static_cast<double>(serve_ops) - served);
    put("serve.rejected_share", requests > 0 ? rejected / requests : 0);
    put("serve.p99_cycles", p99 * per_cell);
    put("serve.mean_queue_depth", depth * per_cell);

    put("shard.setup_s", span("cluster_setup").totalS);
    put("shard.run_s", span("cluster_run").totalS);
    put("shard.slot_us_p50", percentile(span("slot").durUs, 0.50));
    put("shard.slot_us_p99", percentile(span("slot").durUs, 0.99));
    put("shard.cross_shard_txs", static_cast<double>(tx.crossShardTxs));
    put("shard.prepare_round_trips",
        static_cast<double>(tx.prepareRoundTrips));
    put("shard.network_messages", static_cast<double>(network_messages));
    put("shard.coordinator_stall_cycles",
        static_cast<double>(tx.coordinatorStallCycles));
    put("shard.cross_shard_aborts",
        static_cast<double>(tx.crossShardAborts));

    put("fault.self_s", span("fault").totalS);
    put("fault.power_fails", static_cast<double>(fs.powerFails));
    put("fault.recoveries", static_cast<double>(fs.recoveries));
    put("fault.failovers", static_cast<double>(fs.failovers));
    put("fault.recovery_stall_cycles",
        static_cast<double>(fs.recoveryStallCycles));
    put("fault.failover_stall_cycles",
        static_cast<double>(fs.failoverStallCycles));
    put("fault.rpc_retries", static_cast<double>(fs.rpcRetries));
    put("fault.messages_lost", static_cast<double>(fs.messagesLost));
    return out;
}

/** 32 MiB: the probe table outgrows the host's private caches. */
constexpr std::size_t kProbeTableWords = std::size_t{4} << 20;

/**
 * One slice of the host-speed probe: random read-modify-writes over a
 * fixed table, a few milliseconds of work independent of the
 * simulator.  On a shared host the simulator's speed drifts with its
 * neighbours' cache and memory pressure; run.py scales each pass's
 * times by the mean slice, timed before every cell and after the last,
 * to take that drift out.
 */
double
probeSeconds()
{
    static std::vector<std::uint64_t> table(kProbeTableWords, 1);
    const std::size_t mask = table.size() - 1;
    const auto start = Clock::now();
    std::uint64_t x = 88172645463325252ull; // xorshift64 state
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < 500'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint64_t &slot = table[x & mask];
        sum += slot;
        slot += i;
    }
    const double s = secondsSince(start);
    table[0] = sum; // keeps the loop's work observable
    return s;
}

/** Run every cell once; returns the pass's JSON record. */
Json
runPass(const std::vector<SweepCell> &cells, PassState &ps)
{
    double probe_s = 0, wall_s = 0;
    Json cell_docs = Json::array();
    for (const SweepCell &cell : cells) {
        probe_s += probeSeconds();
        const auto start = Clock::now();
        cell_docs.push(runCell(cell, ps));
        wall_s += secondsSince(start);
    }
    probe_s = (probe_s + probeSeconds()) / (cells.size() + 1);

    std::uint64_t txs = 0, cycles = 0, nvram_writes = 0;
    for (const CellResult &r : ps.results) {
        txs += r.run.committedTxs;
        cycles += r.run.cycles;
        nvram_writes += r.run.nvramWrites;
    }

    std::uint64_t serve_ops = 0;
    const SpanSummary spans = summarize(ps.tracer, serve_ops);
    auto total = [&](std::string_view name) {
        const auto it = spans.find(name);
        return it == spans.end() ? 0.0 : it->second.totalS;
    };
    Json pass = Json::object();
    pass.set("traced", Json::boolean(ps.traced));
    pass.set("probe_s", Json::number(probe_s));
    pass.set("wall_s", Json::number(wall_s));
    pass.set("setup_s", Json::number(total("make_backend") + total("setup") +
                                     total("cluster_setup")));
    pass.set("run_s", Json::number(total("run") + total("serve") +
                                   total("cluster_run")));
    pass.set("verify_s", Json::number(total("verify")));
    pass.set("report_s", Json::number(total("report")));
    pass.set("sim_txs", Json::number(txs));
    pass.set("sim_cycles", Json::number(cycles));
    pass.set("nvram_writes", Json::number(nvram_writes));
    if (ps.traced)
        pass.set("layers", layerMetrics(ps, spans, serve_ops));
    pass.set("cells", std::move(cell_docs));
    return pass;
}

/**
 * Peak resident set of this process image, in MiB, without the probe's
 * table (written in full before the first pass and resident ever
 * since).  getrusage's ru_maxrss would be wrong here: Linux carries it
 * across exec, so it reports the launching process's footprint
 * whenever that was larger.  VmHWM belongs to the address space exec
 * created.
 */
double
peakRssMiB()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        ssp_fatal("cannot read /proc/self/status");
    char line[256];
    unsigned long kib = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::sscanf(line, "VmHWM: %lu kB", &kib) == 1)
            break;
    }
    std::fclose(f);
    if (kib == 0)
        ssp_fatal("no VmHWM in /proc/self/status");
    const double probe_kib = kProbeTableWords * sizeof(std::uint64_t) / 1024.0;
    return (static_cast<double>(kib) - probe_kib) / 1024;
}

// ---- command line ----------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    unsigned passes = 1;
    bool trace = false;
    bool smoke = false;
    std::string traceOut;
};

[[noreturn]] void
usage(int exit_code)
{
    std::fprintf(
        stderr,
        "usage: ssp_perf --workload NAME [options]\n"
        "\n"
        "  --workload NAME  paper-c1, contended-c64, mesh-c256, serve-c16\n"
        "                   or cluster-fault (required)\n"
        "  --seed N         grid base seed (default 42, the checked-in\n"
        "                   grids' seed)\n"
        "  --passes N       passes over the workload's cells (default 1)\n"
        "  --trace          one untraced pass, then N traced passes with\n"
        "                   per-layer metrics\n"
        "  --trace-out FILE write the first traced pass's spans as\n"
        "                   Chrome trace-event JSON (implies --trace)\n"
        "  --smoke          the workload's first cell only, one pass\n");
    std::exit(exit_code);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    auto value = [&](int &i) -> std::string {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", argv[i]);
            usage(2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workload") {
            opt.workload = value(i);
        } else if (arg == "--seed") {
            opt.seed = std::stoull(value(i));
        } else if (arg == "--passes") {
            opt.passes = static_cast<unsigned>(std::stoul(value(i)));
        } else if (arg == "--trace") {
            opt.trace = true;
        } else if (arg == "--trace-out") {
            opt.traceOut = value(i);
            opt.trace = true;
        } else if (arg == "--smoke") {
            opt.smoke = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
            usage(2);
        }
    }
    if (opt.workload.empty())
        usage(2);
    if (opt.smoke)
        opt.passes = 1;
    opt.passes = std::max(1u, opt.passes);
    return opt;
}

} // namespace

int
main(int argc, char **argv)
try {
    setVerbose(false);
    const Options opt = parseArgs(argc, argv);
    const PerfWorkload *workload = nullptr;
    for (const PerfWorkload &w : kWorkloads) {
        if (opt.workload == w.name)
            workload = &w;
    }
    if (workload == nullptr) {
        std::fprintf(stderr, "ssp_perf: unknown workload '%s'\n",
                     opt.workload.c_str());
        usage(2);
    }

    sweep::SweepGridOptions grid;
    grid.scale.seed = opt.seed;
    std::vector<SweepCell> cells;
    for (SweepCell &c : sweep::buildFigureGrid(workload->figure, grid)) {
        if (workload->keep(c))
            cells.push_back(std::move(c));
    }
    if (opt.smoke)
        cells.resize(std::min<std::size_t>(cells.size(), 1));

    Json passes = Json::array();
    std::vector<Tracer::Span> kept_spans;
    // Read after the first pass: the heap keeps growing a little with
    // every later pass, so a later reading would depend on --passes.
    double peak_rss_mb = 0;
    auto pass = [&](bool traced) {
        PassState ps;
        ps.traced = traced;
        passes.push(runPass(cells, ps));
        if (peak_rss_mb == 0)
            peak_rss_mb = peakRssMiB();
        if (traced && kept_spans.empty() && !opt.traceOut.empty())
            kept_spans = ps.tracer.spans();
    };
    if (opt.trace)
        pass(false);
    for (unsigned done = 0; done < opt.passes; ++done)
        pass(opt.trace);

    if (!opt.traceOut.empty() &&
        !writeChromeTrace(opt.traceOut, kept_spans)) {
        std::fprintf(stderr, "ssp_perf: cannot write '%s'\n",
                     opt.traceOut.c_str());
        return 1;
    }

    Json doc = Json::object();
    doc.set("workload", Json::str(workload->name));
    doc.set("figure", Json::str(workload->figure));
    doc.set("seed", Json::number(opt.seed));
    doc.set("nproc", Json::number(std::uint64_t{
                         std::thread::hardware_concurrency()}));
    doc.set("peak_rss_mb", Json::number(peak_rss_mb));
    doc.set("passes", std::move(passes));
    std::printf("%s\n", doc.dump().c_str());
    return 0;
} catch (const std::exception &e) {
    std::fprintf(stderr, "ssp_perf: %s\n", e.what());
    return 2;
}
