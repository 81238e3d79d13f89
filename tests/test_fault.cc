/**
 * @file
 * Fault-injection harness tests: deterministic fault plans, recovery and
 * failover pricing, the unreliable-network retry model, the logged 2PC
 * crash windows (coordinator crash in the blocking window resolves by
 * presumed abort; participant crash by vote timeout — and a crash swept
 * across every window never loses or duplicates an outcome), the
 * FaultInjector end to end on a cluster run, and determinism of the
 * fault sweep grid across worker counts.
 */

#include <set>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "fault/fault_injector.hh"
#include "shard/shard_driver.hh"
#include "sweep/sweep_runner.hh"
#include "tests/test_helpers.hh"

namespace ssp::fault::test
{
namespace
{

/** The smoke/scale/shard/fault machine at @p cores cores. */
SspConfig
faultConfig(unsigned cores)
{
    return ssp::test::smallConfig(cores);
}

/** A small workload scale matching the fault grid's capped streams. */
WorkloadScale
faultScale(std::uint64_t seed = 42)
{
    WorkloadScale scale;
    scale.keySpace = 1024;
    scale.spsElements = 4096;
    scale.seed = seed;
    return scale;
}

/** Drain machine @p m's plan events up to @p horizon into a vector. */
std::vector<FaultEvent>
drain(FaultPlan &plan, unsigned m, Cycles horizon)
{
    std::vector<FaultEvent> events;
    while (plan.due(m, horizon)) {
        events.push_back(plan.peek(m));
        plan.advance(m);
    }
    return events;
}

// ---- fault plan ------------------------------------------------------------

TEST(FaultPlan, SameSeedReplaysTheSameSchedule)
{
    FaultParams params;
    params.ratePerMcycle = 20;
    params.seed = 12345;
    FaultPlan a(params, 4);
    FaultPlan b(params, 4);
    for (unsigned m = 0; m < 4; ++m) {
        const auto ea = drain(a, m, 10'000'000);
        const auto eb = drain(b, m, 10'000'000);
        ASSERT_EQ(ea.size(), eb.size());
        ASSERT_GT(ea.size(), 100u); // ~200 expected at rate 20
        for (std::size_t i = 0; i < ea.size(); ++i) {
            EXPECT_EQ(ea[i].atCycle, eb[i].atCycle);
            EXPECT_EQ(ea[i].kind, eb[i].kind);
        }
    }
}

TEST(FaultPlan, MachinesGetDisjointStreamsAndRateZeroSchedulesNothing)
{
    FaultParams params;
    params.ratePerMcycle = 20;
    params.seed = 7;
    FaultPlan plan(params, 3);
    std::set<Cycles> firsts;
    for (unsigned m = 0; m < 3; ++m)
        firsts.insert(plan.peek(m).atCycle);
    EXPECT_EQ(firsts.size(), 3u);

    FaultParams quiet;
    quiet.ratePerMcycle = 0;
    quiet.seed = 7;
    FaultPlan none(quiet, 3);
    EXPECT_FALSE(none.due(0, Cycles{1} << 40));
}

TEST(FaultPlan, RateScalesTheScheduleDensity)
{
    FaultParams slow;
    slow.ratePerMcycle = 5;
    slow.seed = 99;
    FaultParams fast = slow;
    fast.ratePerMcycle = 20;
    FaultPlan a(slow, 1);
    FaultPlan b(fast, 1);
    const std::size_t na = drain(a, 0, 20'000'000).size();
    const std::size_t nb = drain(b, 0, 20'000'000).size();
    // ~100 vs ~400 expected; 2x leaves generous slack for the uniform
    // inter-arrival noise.
    EXPECT_GT(nb, 2 * na);
}

TEST(FaultPlan, AbsorbUntilDropsEventsInsideTheOutage)
{
    FaultParams params;
    params.ratePerMcycle = 100;
    params.seed = 3;
    FaultPlan plan(params, 1);
    const Cycles outage_end = 500000;
    plan.absorbUntil(0, outage_end);
    EXPECT_FALSE(plan.due(0, outage_end));
    EXPECT_GT(plan.peek(0).atCycle, outage_end);
}

// ---- recovery pricing ------------------------------------------------------

TEST(FaultPricing, RecoverInPlaceScalesWithThePersistentFootprint)
{
    const SspConfig cfg = faultConfig(4);
    const Cycles expected =
        kRecoveryBaseCycles + (Cycles{cfg.journalPages} +
                               Cycles{cfg.logPages}) *
                                  kRecoveryScanCyclesPerPage;
    EXPECT_EQ(recoverInPlaceCycles(cfg), expected);

    SspConfig bigger = cfg;
    bigger.logPages *= 4;
    EXPECT_GT(recoverInPlaceCycles(bigger), recoverInPlaceCycles(cfg));
}

TEST(FaultPricing, FailoverBeatsInPlaceRecovery)
{
    // The replication claim the fault grid measures: promotion costs
    // detection + handshake + bookkeeping, never a log scan, so it is
    // strictly cheaper than recovering in place on any real config.
    EXPECT_LT(failoverCycles(), recoverInPlaceCycles(faultConfig(4)));
    // Two 64-byte handshake messages at 5000 + 200 + 4 cycles each.
    EXPECT_EQ(failoverCycles(),
              kFailureDetectCycles + 2 * (5000u + 200u + 4u) +
                  kPromotionCycles);
}

// ---- unreliable network ----------------------------------------------------

TEST(UnreliableNetwork, DisabledFaultsArePricedExactlyAsMessageCost)
{
    shard::NetworkModel reliable;
    shard::NetworkModel armed;
    // Arming with zero rates keeps the reliable path: no draws, no
    // losses, identical pricing (the zero-fault byte-identity bar).
    armed.enableFaults(shard::NetworkFaultParams{}, 42);
    for (std::uint64_t bytes : {64u, 256u, 4096u}) {
        EXPECT_EQ(armed.sendReliable(0, 1, bytes),
                  reliable.messageCost(0, 1, bytes));
    }
    EXPECT_EQ(armed.sendReliable(2, 2, 1024), 0u);
    EXPECT_EQ(armed.messagesLost(), 0u);
    EXPECT_EQ(armed.rpcRetries(), 0u);
    EXPECT_EQ(armed.timeoutStallCycles(), 0u);
}

TEST(UnreliableNetwork, CertainLossRetriesWithCappedBackoffThenDelivers)
{
    shard::NetworkFaultParams faults;
    faults.lossRate = 1.0; // every transmission drops...
    shard::NetworkModel net;
    net.enableFaults(faults, 7);
    const Cycles base = shard::NetworkModel().messageCost(0, 1, 256);
    // ...until the 17th attempt is forced through at plain messageCost.
    // Timeouts: 20000 << {0,1,2,3,3,...} = 20k+40k+80k, then 13 x 160k.
    const Cycles stall = 20000 + 40000 + 80000 + 13 * 160000;
    EXPECT_EQ(net.sendReliable(0, 1, 256), stall + base);
    EXPECT_EQ(net.messagesLost(), 16u);
    EXPECT_EQ(net.rpcRetries(), 16u);
    EXPECT_EQ(net.timeoutStallCycles(), stall);
}

TEST(UnreliableNetwork, LossAndDelayStallsAccumulateDeterministically)
{
    shard::NetworkFaultParams faults;
    faults.lossRate = 0.3;
    faults.delayRate = 0.3;
    shard::NetworkModel a;
    shard::NetworkModel b;
    a.enableFaults(faults, 1234);
    b.enableFaults(faults, 1234);
    Cycles total_a = 0;
    Cycles total_b = 0;
    for (int i = 0; i < 200; ++i) {
        total_a += a.sendReliable(0, 1, 256);
        total_b += b.sendReliable(0, 1, 256);
    }
    EXPECT_EQ(total_a, total_b);
    EXPECT_EQ(a.messagesLost(), b.messagesLost());
    EXPECT_GT(a.messagesLost(), 0u);
    EXPECT_GT(a.timeoutStallCycles(), 0u);
    // A delayed delivery costs more than the reliable price.
    EXPECT_GT(total_a, 200 * shard::NetworkModel().messageCost(0, 1, 256));
}

// ---- logged 2PC crash windows ----------------------------------------------

/**
 * Scripted fault hooks for the crash-window regressions: messages ride
 * the reliable network, and the two window crashes fire exactly when a
 * test arms them — a deterministic, single-shot FaultInjector stand-in.
 */
class ScriptedHooks : public shard::TxFaultHooks
{
  public:
    explicit ScriptedHooks(shard::Cluster &cluster) : cluster_(cluster)
    {
    }

    Cycles
    sendReliable(unsigned src, unsigned dst, std::uint64_t bytes) override
    {
        return cluster_.network().messageCost(src, dst, bytes);
    }

    Cycles
    persistDecision(unsigned, CoreId) override
    {
        ++decisions;
        return kDecisionPersistCycles;
    }

    Cycles
    shipCommit(unsigned, CoreId) override
    {
        return 0;
    }

    bool
    coordinatorCrashArmed(unsigned) override
    {
        return coordinatorCrashes > 0;
    }

    void
    failCoordinator(unsigned home, unsigned peer, CoreId core) override
    {
        --coordinatorCrashes;
        ++coordinatorFails;
        cluster_.powerFail(home);
        // The participant's decision-log query round trip.
        cluster_.machine(peer).clock(core) +=
            sendReliable(peer, home, kQueryBytes) +
            sendReliable(home, peer, shard::kDecisionBytes);
    }

    bool
    participantCrashArmed(unsigned) override
    {
        return participantCrashes > 0;
    }

    void
    failParticipant(unsigned peer, CoreId) override
    {
        --participantCrashes;
        ++participantFails;
        cluster_.powerFail(peer);
    }

    Cycles
    voteTimeout() override
    {
        ++voteTimeouts;
        return 20000;
    }

    unsigned coordinatorCrashes = 0; ///< armed window crashes left
    unsigned participantCrashes = 0;
    unsigned coordinatorFails = 0; ///< crashes actually fired
    unsigned participantFails = 0;
    unsigned voteTimeouts = 0;
    unsigned decisions = 0;

  private:
    shard::Cluster &cluster_;
};

TEST(LoggedTwoPhaseCommit, CommitPathPersistsOneDecisionPerTransaction)
{
    shard::Cluster cluster(BackendKind::Ssp, WorkloadKind::Sps,
                           faultConfig(1), faultScale(), 2);
    shard::TxCoordinator coord(cluster);
    ScriptedHooks hooks(cluster);
    coord.setFaultHooks(&hooks);
    const std::uint64_t home_before =
        cluster.shard(0).backend->committedTxs();
    const std::uint64_t peer_before =
        cluster.shard(1).backend->committedTxs();
    for (int i = 0; i < 10; ++i)
        coord.runCrossShard(0, 1, 0);
    EXPECT_EQ(coord.stats().crossShardTxs, 10u);
    EXPECT_EQ(hooks.decisions, 10u);
    EXPECT_EQ(cluster.shard(0).backend->committedTxs(), home_before + 10);
    EXPECT_EQ(cluster.shard(1).backend->committedTxs(), peer_before + 10);
    EXPECT_TRUE(cluster.shard(0).workload->verify());
    EXPECT_TRUE(cluster.shard(1).workload->verify());
}

TEST(LoggedTwoPhaseCommit, CoordinatorCrashInBlockingWindowPresumesAbort)
{
    // The satellite-1 regression: the coordinator dies after collecting
    // votes but before the decision record persists.  Nothing is
    // durable anywhere, so recovery must resolve to a global abort —
    // neither shard may keep (or half-keep) the transaction.
    shard::Cluster cluster(BackendKind::Ssp, WorkloadKind::Sps,
                           faultConfig(1), faultScale(), 2);
    shard::TxCoordinator coord(cluster);
    ScriptedHooks hooks(cluster);
    coord.setFaultHooks(&hooks);
    hooks.coordinatorCrashes = 1;
    const std::uint64_t home_before =
        cluster.shard(0).backend->committedTxs();
    const std::uint64_t peer_before =
        cluster.shard(1).backend->committedTxs();

    EXPECT_THROW(coord.tryCrossShard(0, 1, 0), shard::ShardTxAbort);
    EXPECT_EQ(hooks.coordinatorFails, 1u);
    EXPECT_EQ(hooks.decisions, 0u); // the window is before the record
    // Presumed abort: no commit survived on either shard, and both
    // reference models still match the persistent images.
    EXPECT_EQ(cluster.shard(0).backend->committedTxs(), home_before);
    EXPECT_EQ(cluster.shard(1).backend->committedTxs(), peer_before);
    EXPECT_TRUE(cluster.shard(0).workload->verify());
    EXPECT_TRUE(cluster.shard(1).workload->verify());

    // The retry (a fresh client request) commits exactly once.
    coord.runCrossShard(0, 1, 0);
    EXPECT_EQ(cluster.shard(0).backend->committedTxs(), home_before + 1);
    EXPECT_EQ(cluster.shard(1).backend->committedTxs(), peer_before + 1);
    EXPECT_TRUE(cluster.shard(0).workload->verify());
    EXPECT_TRUE(cluster.shard(1).workload->verify());
}

TEST(LoggedTwoPhaseCommit, ParticipantCrashTimesOutAndPresumesAbort)
{
    shard::Cluster cluster(BackendKind::RedoLog, WorkloadKind::HashRand,
                           faultConfig(1), faultScale(), 2);
    shard::TxCoordinator coord(cluster);
    ScriptedHooks hooks(cluster);
    coord.setFaultHooks(&hooks);
    hooks.participantCrashes = 1;
    const std::uint64_t home_before =
        cluster.shard(0).backend->committedTxs();
    const std::uint64_t peer_before =
        cluster.shard(1).backend->committedTxs();

    EXPECT_THROW(coord.tryCrossShard(0, 1, 0), shard::ShardTxAbort);
    EXPECT_EQ(hooks.participantFails, 1u);
    EXPECT_EQ(hooks.voteTimeouts, 1u); // the vote never departed
    EXPECT_EQ(cluster.shard(0).backend->committedTxs(), home_before);
    EXPECT_EQ(cluster.shard(1).backend->committedTxs(), peer_before);
    EXPECT_TRUE(cluster.shard(0).workload->verify());
    EXPECT_TRUE(cluster.shard(1).workload->verify());

    coord.runCrossShard(0, 1, 0);
    EXPECT_EQ(cluster.shard(0).backend->committedTxs(), home_before + 1);
    EXPECT_EQ(cluster.shard(1).backend->committedTxs(), peer_before + 1);
}

TEST(LoggedTwoPhaseCommit, CrashAtEveryWindowNeverLosesOrDuplicates)
{
    // Sweep one small 2PC transaction through every crash position the
    // protocol has: no crash, a power failure of either machine between
    // transactions, a participant crash inside the prepare window, and
    // a coordinator crash inside the blocking window.  In every case
    // the retried request must end with exactly one committed outcome
    // per shard — never zero (lost) and never two (duplicated).
    enum class Crash
    {
        None,
        HomeBetweenTxs,
        PeerBetweenTxs,
        Participant,
        Coordinator,
    };
    for (Crash crash : {Crash::None, Crash::HomeBetweenTxs,
                        Crash::PeerBetweenTxs, Crash::Participant,
                        Crash::Coordinator}) {
        // 4 cores: 1-core machines disable conflict detection, and the
        // cross-shard retry path charges its abort penalty through it.
        shard::Cluster cluster(BackendKind::Ssp, WorkloadKind::Sps,
                               faultConfig(4), faultScale(), 2);
        shard::TxCoordinator coord(cluster);
        ScriptedHooks hooks(cluster);
        coord.setFaultHooks(&hooks);
        if (crash == Crash::HomeBetweenTxs)
            cluster.powerFail(0);
        if (crash == Crash::PeerBetweenTxs)
            cluster.powerFail(1);
        if (crash == Crash::Participant)
            hooks.participantCrashes = 1;
        if (crash == Crash::Coordinator)
            hooks.coordinatorCrashes = 1;
        const std::uint64_t home_before =
            cluster.shard(0).backend->committedTxs();
        const std::uint64_t peer_before =
            cluster.shard(1).backend->committedTxs();

        coord.runCrossShard(0, 1, 0);

        const int tag = static_cast<int>(crash);
        EXPECT_EQ(cluster.shard(0).backend->committedTxs(),
                  home_before + 1)
            << "crash position " << tag;
        EXPECT_EQ(cluster.shard(1).backend->committedTxs(),
                  peer_before + 1)
            << "crash position " << tag;
        EXPECT_EQ(coord.stats().crossShardTxs, 1u)
            << "crash position " << tag;
        EXPECT_TRUE(cluster.shard(0).workload->verify())
            << "crash position " << tag;
        EXPECT_TRUE(cluster.shard(1).workload->verify())
            << "crash position " << tag;
    }
}

// ---- fault injector on a cluster run ---------------------------------------

TEST(FaultInjector, InjectedClusterRunRecoversEveryFailure)
{
    shard::Cluster cluster(BackendKind::Ssp, WorkloadKind::Sps,
                           faultConfig(4), faultScale(), 2);
    FaultParams params;
    params.ratePerMcycle = 20;
    params.seed = 1234;
    FaultInjector inj(cluster, params, 5678, 0.3);
    const shard::ShardRunResult res = shard::runClusterExperiment(
        cluster, 150, 4, 0.3, 777, &inj);

    const FaultStats &s = inj.stats();
    EXPECT_GT(s.powerFails, 0u);
    EXPECT_EQ(s.recoveries, s.powerFails); // unreplicated: all in-place
    EXPECT_EQ(s.failovers, 0u);
    EXPECT_EQ(s.recoveryStallCycles,
              s.recoveries * recoverInPlaceCycles(faultConfig(4)));
    // The unreliable fabric at rate 20 (10% loss) must have dropped and
    // retried something over hundreds of 2PC messages.
    EXPECT_GT(s.messagesLost, 0u);
    EXPECT_EQ(s.rpcRetries, s.messagesLost);
    EXPECT_GT(s.rpcTimeoutStallCycles, 0u);
    EXPECT_GT(s.committedDespiteFaults, 0u);

    // Conservation: every slot still committed exactly once — faults
    // delayed transactions but never lost or duplicated one.
    EXPECT_EQ(res.tx.singleShardTxs + res.tx.crossShardTxs, 2u * 150u);
    EXPECT_EQ(res.aggregate.committedTxs,
              2u * 150u + res.tx.crossShardTxs);
}

TEST(FaultInjector, ReplicationFailsOverInsteadOfRecoveringInPlace)
{
    shard::Cluster cluster(BackendKind::Ssp, WorkloadKind::Sps,
                           faultConfig(4), faultScale(), 2);
    FaultParams params;
    params.ratePerMcycle = 20;
    params.replicate = true;
    params.seed = 1234;
    FaultInjector inj(cluster, params, 5678, 0.3);
    const shard::ShardRunResult res = shard::runClusterExperiment(
        cluster, 150, 4, 0.3, 777, &inj);

    const FaultStats &s = inj.stats();
    EXPECT_GT(s.powerFails, 0u);
    EXPECT_EQ(s.failovers, s.powerFails);
    EXPECT_EQ(s.recoveries, 0u);
    const Cycles per_failover = failoverCycles();
    EXPECT_EQ(s.failoverStallCycles, s.failovers * per_failover);
    EXPECT_LT(per_failover, recoverInPlaceCycles(faultConfig(4)));
    // Synchronous log shipping priced every commit: a ship + an ack.
    EXPECT_GT(s.logShipMessages, 0u);
    EXPECT_EQ(s.logShipMessages % 2, 0u);
    EXPECT_GT(s.logShipCycles, 0u);
    EXPECT_EQ(res.tx.singleShardTxs + res.tx.crossShardTxs, 2u * 150u);
}

TEST(FaultInjector, WindowKindsDegradeToPowerFailWithoutPeers)
{
    // One machine (or fraction 0) can never consume a coordinator or
    // participant crash; the plan's window draws must still fire as
    // plain power failures instead of silently vanishing.
    shard::Cluster cluster(BackendKind::Ssp, WorkloadKind::Sps,
                           faultConfig(4), faultScale(), 1);
    FaultParams params;
    params.ratePerMcycle = 20;
    params.seed = 1234;
    FaultInjector inj(cluster, params, 5678, 0);
    shard::runClusterExperiment(cluster, 150, 4, 0, 777, &inj);
    EXPECT_GT(inj.stats().powerFails, 0u);
    EXPECT_EQ(inj.stats().coordinatorCrashes, 0u);
    EXPECT_EQ(inj.stats().participantCrashes, 0u);
}

// ---- crash between runs ----------------------------------------------------

TEST(Driver, CrashBetweenRunsKeepsEveryCommit)
{
    Experiment exp = buildExperiment(BackendKind::Ssp, WorkloadKind::Sps,
                                     faultConfig(2), faultScale());
    const RunResult before = runExperiment(exp, 50, 2);
    exp.backend->crash();
    exp.backend->recover();
    const RunResult after = runExperiment(exp, 70, 2);
    EXPECT_EQ(before.committedTxs + after.committedTxs, 120u);
    EXPECT_TRUE(exp.workload->verify());
}

// ---- fault sweep grid ------------------------------------------------------

TEST(FaultGrid, ShapeCoversMachinesRatesAndReplication)
{
    const auto cells = sweep::buildFigureGrid("fault");
    // machines {1,2,4} x rates {0,5,20} x replication {off,on} x
    // 3 workloads x 3 backends.
    ASSERT_EQ(cells.size(), 3u * 3u * 2u * 9u);
    std::set<std::string> labels;
    for (const sweep::SweepCell &cell : cells) {
        EXPECT_EQ(cell.figure, "fault");
        EXPECT_EQ(cell.cores, 4u);
        EXPECT_EQ(cell.txs, 400u);
        // 2PC wherever peers exist; none on the 1-machine cells.
        EXPECT_EQ(cell.crossShardFraction, cell.machines > 1 ? 0.1 : 0.0);
        labels.insert(cell.label());
    }
    EXPECT_EQ(labels.size(), cells.size());
    EXPECT_TRUE(labels.count("fault/SSP/SPS/c4/m1/f0"));
    EXPECT_TRUE(labels.count("fault/SSP/SPS/c4/m2/x10/f50/rep"));
    EXPECT_TRUE(labels.count("fault/SSP/Hash-Rand/c4/p4/m4/x10/f200"));
    EXPECT_TRUE(
        labels.count("fault/REDO-LOG/BTree-Zipf/c4/m4/x10/f200/rep"));
}

// ---- fault sweep runs ------------------------------------------------------

/** The small fault grid the sweep tests share. */
std::vector<sweep::SweepCell>
smallFaultGrid()
{
    sweep::SweepGridOptions opts;
    opts.workloads = {WorkloadKind::Sps};
    opts.backends = {BackendKind::Ssp};
    opts.txs = 60;
    return ssp::test::gridCells("fault", [](const sweep::SweepCell &c) {
        return c.machines <= 2 && c.faultRate != 5;
    }, opts);
}

TEST(FaultSweep, CellsAreDeterministicAcrossJobs)
{
    const auto cells = smallFaultGrid();
    ASSERT_EQ(cells.size(), 2u * 2u * 2u);
    const auto serial = sweep::runSweep(cells, 1);
    const auto parallel = sweep::runSweep(cells, 3);
    EXPECT_EQ(sweep::sweepReport("fault", serial).dump(2),
              sweep::sweepReport("fault", parallel).dump(2));
}

TEST(FaultSweep, ReportZeroesFaultMetricsOffTheInjectingCells)
{
    const auto results = sweep::runSweep(smallFaultGrid(), 2);
    const Json report =
        Json::parse(sweep::sweepReport("fault", results).dump(2));
    for (std::size_t i = 0; i < report["cells"].size(); ++i) {
        const Json &c = report["cells"].at(i);
        const std::string label = c["label"].asString();
        ASSERT_TRUE(c["ok"].asBool()) << label;
        const bool injecting = c["fault_rate_tenths"].asUint() > 0;
        const bool replicated = c["replicated"].asBool();
        const Json &m = c["metrics"];
        if (!injecting) {
            // No fault can fire at rate 0.
            for (const char *f : {"injected_power_fails", "recoveries",
                                  "failovers", "presumed_aborts",
                                  "rpc_retries", "committed_despite_faults"})
                EXPECT_EQ(m[f].asUint(), 0u) << label << " " << f;
        }
        if (!replicated) {
            EXPECT_EQ(m["log_ship_messages"].asUint(), 0u) << label;
            EXPECT_EQ(m["log_ship_cycles"].asUint(), 0u) << label;
        }
        if (injecting) {
            // Every injecting cell must show recovery actually
            // happening — failures fired and were priced.
            EXPECT_GT(m["injected_power_fails"].asUint(), 0u) << label;
            EXPECT_EQ(m["recoveries"].asUint() + m["failovers"].asUint(),
                      m["injected_power_fails"].asUint())
                << label;
            if (replicated) {
                EXPECT_EQ(m["recoveries"].asUint(), 0u);
            } else {
                EXPECT_EQ(m["failovers"].asUint(), 0u);
            }
        }
    }
}

TEST(FaultSweep, ZeroFaultCellsReplayTheShardGridBitForBit)
{
    // The opt-in bar: a fault-grid cell at rate 0 without replication
    // runs the identical code path as its shard-grid twin — same seeds
    // (both pinned to the scale plane), same driver, no injector.
    sweep::SweepGridOptions opts;
    opts.workloads = {WorkloadKind::Sps};
    opts.backends = {BackendKind::Ssp};
    opts.txs = 80;
    const auto fault_cells =
        ssp::test::gridCells("fault", [](const sweep::SweepCell &c) {
            return c.machines == 2 && c.faultRate == 0 && !c.replicate;
        }, opts);
    ASSERT_EQ(fault_cells.size(), 1u);
    const auto shard_cells =
        ssp::test::gridCells("shard", [](const sweep::SweepCell &c) {
            return c.machines == 2 && c.crossShardFraction == 0.1;
        }, opts);
    ASSERT_EQ(shard_cells.size(), 1u);
    ASSERT_EQ(shard_cells[0].scale.seed, fault_cells[0].scale.seed);

    const auto fr = sweep::runSweep(fault_cells, 1);
    const auto sr = sweep::runSweep(shard_cells, 1);
    ASSERT_TRUE(fr[0].ok && sr[0].ok);
    EXPECT_EQ(fr[0].run.cycles, sr[0].run.cycles);
    EXPECT_EQ(fr[0].run.committedTxs, sr[0].run.committedTxs);
    EXPECT_EQ(fr[0].run.nvramWrites, sr[0].run.nvramWrites);
    EXPECT_EQ(fr[0].run.loggingWrites, sr[0].run.loggingWrites);
    EXPECT_EQ(fr[0].shardTx.crossShardTxs, sr[0].shardTx.crossShardTxs);
    EXPECT_EQ(fr[0].shardTx.crossShardAborts,
              sr[0].shardTx.crossShardAborts);
    EXPECT_EQ(fr[0].networkMessages, sr[0].networkMessages);
    EXPECT_EQ(fr[0].networkCycles, sr[0].networkCycles);
}

TEST(FaultSweep, ReplicatedCellsShowFailoverBeatingRecovery)
{
    // The grid's headline claim on a contended plane: with the same
    // fault schedule, replication turns every outage into a failover
    // whose total stall is strictly below the in-place recovery stall.
    sweep::SweepGridOptions opts;
    opts.workloads = {WorkloadKind::BTreeZipf};
    opts.backends = {BackendKind::Ssp};
    opts.txs = 100;
    const auto cells =
        ssp::test::gridCells("fault", [](const sweep::SweepCell &c) {
            return c.machines == 2 && c.faultRate == 20;
        }, opts);
    ASSERT_EQ(cells.size(), 2u); // rep off + rep on
    const auto results = sweep::runSweep(cells, 2);
    const sweep::CellResult *plain = nullptr;
    const sweep::CellResult *replicated = nullptr;
    for (const sweep::CellResult &r : results) {
        ASSERT_TRUE(r.ok) << r.error;
        (r.cell.replicate ? replicated : plain) = &r;
    }
    ASSERT_NE(plain, nullptr);
    ASSERT_NE(replicated, nullptr);
    EXPECT_GT(plain->faultStats.recoveries, 0u);
    EXPECT_GT(replicated->faultStats.failovers, 0u);
    // Per-outage downtime: failover strictly beats the recovery scan.
    const Cycles per_recovery = plain->faultStats.recoveryStallCycles /
                                plain->faultStats.recoveries;
    const Cycles per_failover =
        replicated->faultStats.failoverStallCycles /
        replicated->faultStats.failovers;
    EXPECT_LT(per_failover, per_recovery);
}

} // namespace
} // namespace ssp::fault::test
