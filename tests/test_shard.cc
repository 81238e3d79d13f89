/**
 * @file
 * Sharded-cluster tests: the network cost model, per-shard seed
 * derivation, the 1-machine identity (a cluster of one is the
 * single-machine model bit for bit, including against the checked-in
 * BENCH_scale.json), shard independence at cross-shard fraction 0, the
 * 2PC fault matrix (abort rollback, participant power failure between
 * prepare and commit, recovery while peers serve), and determinism of
 * the shard sweep grid across worker counts.
 */

#include <map>
#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

#include "shard/shard_driver.hh"
#include "sweep/sweep_runner.hh"
#include "tests/test_helpers.hh"

namespace ssp::shard::test
{
namespace
{

using ssp::test::expectSameMetrics;

/** The smoke/scale/shard machine at @p cores cores. */
SspConfig
shardConfig(unsigned cores)
{
    return ssp::test::smallConfig(cores);
}

/** A small workload scale matching the shard grid's capped streams. */
WorkloadScale
shardScale(std::uint64_t seed = 42)
{
    WorkloadScale scale;
    scale.keySpace = 1024;
    scale.spsElements = 4096;
    scale.seed = seed;
    return scale;
}

// ---- network model ---------------------------------------------------------

TEST(NetworkModel, SameMachineMessagesAreFreeAndUncounted)
{
    NetworkModel net;
    EXPECT_EQ(net.messageCost(0, 0, kPrepareBytes), 0u);
    EXPECT_EQ(net.messageCost(3, 3, 1 << 20), 0u);
    EXPECT_EQ(net.messages(), 0u);
    EXPECT_EQ(net.cyclesCharged(), 0u);
}

TEST(NetworkModel, CrossMachineCostIsLatencyPlusSerializationPlusWire)
{
    NetworkModel net;
    // 256 bytes at 16 B/cycle = 16 wire cycles.
    EXPECT_EQ(net.messageCost(0, 1, 256), 5000u + 200u + 16u);
    // Partial last beat rounds up: 17 bytes take 2 cycles.
    EXPECT_EQ(net.messageCost(1, 0, 17), 5000u + 200u + 2u);
    EXPECT_EQ(net.messages(), 2u);
    EXPECT_EQ(net.cyclesCharged(), (5000u + 200u + 16u) + (5000u + 200u + 2u));
}

// ---- cluster construction --------------------------------------------------

TEST(Cluster, ShardSeedKeepsShardZeroAndSeparatesTheRest)
{
    // Shard 0 replays the cell stream verbatim — the 1-machine identity
    // depends on it — and every other shard gets a distinct stream.
    EXPECT_EQ(Cluster::shardSeed(42, 0), 42u);
    std::set<std::uint64_t> seeds;
    for (unsigned m = 0; m < 8; ++m)
        seeds.insert(Cluster::shardSeed(42, m));
    EXPECT_EQ(seeds.size(), 8u);
    // Deterministic: same inputs, same stream.
    EXPECT_EQ(Cluster::shardSeed(42, 3), Cluster::shardSeed(42, 3));
    EXPECT_NE(Cluster::shardSeed(42, 3), Cluster::shardSeed(43, 3));
}

TEST(Cluster, HashPartitionCoversEveryMachine)
{
    Cluster cluster(BackendKind::Ssp, WorkloadKind::Sps, shardConfig(1),
                    shardScale(), 4);
    std::set<unsigned> owners;
    for (std::uint64_t key = 0; key < 1024; ++key) {
        const unsigned m = cluster.shardOf(key);
        ASSERT_LT(m, 4u);
        owners.insert(m);
        // Ownership is a pure function of the key.
        EXPECT_EQ(cluster.shardOf(key), m);
    }
    EXPECT_EQ(owners.size(), 4u);
}

// ---- 1-machine identity ----------------------------------------------------

TEST(ShardDriver, OneMachineClusterMatchesTheSingleMachineDriver)
{
    Cluster cluster(BackendKind::Ssp, WorkloadKind::BTreeZipf,
                    shardConfig(4), shardScale(), 1);
    const ShardRunResult cluster_res =
        runClusterExperiment(cluster, 200, 4, 0, 12345);

    Experiment single = buildExperiment(BackendKind::Ssp,
                                        WorkloadKind::BTreeZipf,
                                        shardConfig(4), shardScale());
    const RunResult single_res = runExperiment(single, 200, 4);

    ASSERT_EQ(cluster_res.shards.size(), 1u);
    expectSameMetrics(cluster_res.aggregate, single_res);
    // No network, no 2PC state on the fast path.
    EXPECT_EQ(cluster_res.tx.crossShardTxs, 0u);
    EXPECT_EQ(cluster_res.networkMessages, 0u);
    EXPECT_EQ(cluster_res.networkCycles, 0u);
}

TEST(ShardGrid, OneMachineCellsReplayTheCheckedInScaleCells)
{
    // The fast-path acceptance bar: every 1-machine shard cell must
    // reproduce the checked-in BENCH_scale.json 4-core cell of the same
    // (backend, workload) bit for bit — same machine, same streams,
    // same driver.  This test reruns the cells; the ctest
    // SweepSchema.ShardCheckedInReportPrices2pcAndKeepsScaleTwins holds
    // the checked-in BENCH_shard.json to the same identity.
    const Json scale = ssp::test::loadCheckedIn("BENCH_scale.json");
    std::map<std::string, const Json *> scale_cells;
    for (std::size_t i = 0; i < scale["cells"].size(); ++i) {
        const Json &c = scale["cells"].at(i);
        scale_cells[c["label"].asString()] = &c;
    }

    const auto cells = ssp::test::gridCells(
        "shard", [](const sweep::SweepCell &c) { return c.machines == 1; });
    ASSERT_EQ(cells.size(), 9u); // 3 workloads x 3 backends, frac 0 only
    const auto results = sweep::runSweep(cells, 2);
    for (const sweep::CellResult &r : results) {
        ASSERT_TRUE(r.ok) << r.cell.label() << ": " << r.error;
        // shard/SSP/SPS/c4/m1 -> scale/SSP/SPS/c4
        std::string label = r.cell.label();
        label.replace(0, 5, "scale");
        label.erase(label.rfind("/m1"));
        const auto it = scale_cells.find(label);
        ASSERT_NE(it, scale_cells.end()) << label;
        const Json &m = (*it->second)["metrics"];
        EXPECT_EQ(m["cycles"].asUint(), r.run.cycles) << label;
        EXPECT_EQ(m["committed_txs"].asUint(), r.run.committedTxs)
            << label;
        EXPECT_EQ(m["nvram_writes"].asUint(), r.run.nvramWrites) << label;
        EXPECT_EQ(m["logging_writes"].asUint(), r.run.loggingWrites)
            << label;
        EXPECT_EQ(m["tx_aborts"].asUint(), r.run.txAborts) << label;
    }
}

// ---- shard independence ----------------------------------------------------

TEST(ShardDriver, FractionZeroShardsMatchIndependentMachines)
{
    // With no cross-shard transactions the cluster is M independent
    // machines: each shard's metrics must equal a standalone
    // single-machine run with that shard's derived seed.
    Cluster cluster(BackendKind::UndoLog, WorkloadKind::Sps,
                    shardConfig(4), shardScale(), 2);
    const ShardRunResult res = runClusterExperiment(cluster, 150, 4, 0, 7);
    ASSERT_EQ(res.shards.size(), 2u);
    EXPECT_EQ(res.tx.singleShardTxs, 2u * 150u);
    EXPECT_EQ(res.tx.crossShardTxs, 0u);
    EXPECT_EQ(res.networkMessages, 0u);

    for (unsigned m = 0; m < 2; ++m) {
        Experiment single = buildExperiment(
            BackendKind::UndoLog, WorkloadKind::Sps, shardConfig(4),
            shardScale(Cluster::shardSeed(42, m)));
        expectSameMetrics(res.shards[m], runExperiment(single, 150, 4));
    }
}

// ---- 2PC fault matrix ------------------------------------------------------

TEST(TwoPhaseCommit, ContendedCrossShardRunAbortsRollBackAndVerify)
{
    // Zipf-contended cluster: cross-shard validation failures must roll
    // back both branches (no reference-model drift — verify() passes on
    // every shard) while committed work adds up exactly.
    Cluster cluster(BackendKind::Ssp, WorkloadKind::BTreeZipf,
                    shardConfig(4), shardScale(), 2);
    const std::uint64_t txs = 300;
    const ShardRunResult res =
        runClusterExperiment(cluster, txs, 4, 0.5, 99);

    EXPECT_EQ(res.tx.singleShardTxs + res.tx.crossShardTxs, 2 * txs);
    EXPECT_GT(res.tx.crossShardTxs, 0u);
    // The Zipf hotspot under 4 cores x 2 shards must produce at least
    // one cross-shard abort — otherwise the rollback path went untested.
    EXPECT_GT(res.tx.crossShardAborts, 0u);
    // Every commit sent exactly one prepare; aborted attempts sent one
    // iff they survived home validation (a home conflict aborts before
    // spending the network round).
    EXPECT_GE(res.tx.prepareRoundTrips, res.tx.crossShardTxs);
    EXPECT_LE(res.tx.prepareRoundTrips,
              res.tx.crossShardTxs + res.tx.crossShardAborts);
    EXPECT_GT(res.networkMessages, 0u);
    EXPECT_GT(res.networkCycles, 0u);

    for (unsigned m = 0; m < 2; ++m) {
        EXPECT_TRUE(cluster.shard(m).workload->verify())
            << "shard " << m << " diverged from its reference model";
    }
}

TEST(TwoPhaseCommit, ParticipantPowerFailureAfterPrepareKeepsTheOutcome)
{
    // The durable-prepare guarantee: once a participant voted yes (its
    // prepare record — the backend commit — persisted), a power failure
    // before the decision arrives must recover to the validated
    // outcome.  The prepared hook fires exactly in that window.
    Cluster cluster(BackendKind::Ssp, WorkloadKind::HashRand,
                    shardConfig(4), shardScale(), 2);
    TxCoordinator coord(cluster);
    unsigned failures = 0;
    coord.setPreparedHook([&](unsigned peer) {
        if (failures == 0) {
            ++failures;
            cluster.powerFail(peer);
        }
    });
    // Drive cross-shard transactions until the hook has fired.
    for (std::uint64_t i = 0; i < 20; ++i)
        coord.runCrossShard(0, 1, 0);
    ASSERT_EQ(failures, 1u);
    EXPECT_EQ(coord.stats().crossShardTxs, 20u);
    // Both shards — including the one that lost power mid-2PC — match
    // their reference models: the prepared transaction survived.
    EXPECT_TRUE(cluster.shard(0).workload->verify());
    EXPECT_TRUE(cluster.shard(1).workload->verify());
}

TEST(TwoPhaseCommit, PowerFailedShardRecoversWhilePeersKeepServing)
{
    // Mid-run power failure of one shard: the cluster keeps serving
    // (the failed shard recovers from its own durable state), and every
    // shard still verifies afterwards.
    Cluster cluster(BackendKind::RedoLog, WorkloadKind::Sps,
                    shardConfig(4), shardScale(), 4);
    const ShardRunResult before =
        runClusterExperiment(cluster, 50, 4, 0.1, 11);
    EXPECT_GT(before.aggregate.committedTxs, 0u);

    cluster.powerFail(2);
    for (unsigned m = 0; m < 4; ++m)
        EXPECT_TRUE(cluster.shard(m).workload->verify()) << m;

    const ShardRunResult after =
        runClusterExperiment(cluster, 50, 4, 0.1, 13);
    EXPECT_GT(after.aggregate.committedTxs, 0u);
    for (unsigned m = 0; m < 4; ++m)
        EXPECT_TRUE(cluster.shard(m).workload->verify()) << m;
}

// ---- sweep grid ------------------------------------------------------------

TEST(ShardGrid, ShapeCoversMachinesAndFractions)
{
    const auto cells = sweep::buildFigureGrid("shard");
    // m1: 9 fast-path cells (fraction 0 only); m2/m4/m8: 3 fractions
    // x 3 workloads x 3 backends each.
    ASSERT_EQ(cells.size(), 9u + 3u * 3u * 9u);
    std::set<std::string> labels;
    for (const sweep::SweepCell &cell : cells) {
        EXPECT_EQ(cell.figure, "shard");
        EXPECT_EQ(cell.cores, 4u);
        EXPECT_EQ(cell.txs, 400u);
        if (cell.machines == 1) {
            EXPECT_EQ(cell.crossShardFraction, 0.0);
        }
        // Partitioned scenario: Hash-Rand shards its keys per core.
        if (cell.workload == WorkloadKind::HashRand) {
            EXPECT_EQ(cell.keyShards, 4u);
        }
        labels.insert(cell.label());
    }
    EXPECT_EQ(labels.size(), cells.size());
    EXPECT_TRUE(labels.count("shard/SSP/SPS/c4/m1"));
    EXPECT_TRUE(labels.count("shard/SSP/Hash-Rand/c4/p4/m4/x10"));
    EXPECT_TRUE(labels.count("shard/REDO-LOG/BTree-Zipf/c4/m8/x50"));
}

TEST(ShardSweep, CellsAreDeterministicAcrossJobs)
{
    sweep::SweepGridOptions opts;
    opts.workloads = {WorkloadKind::Sps, WorkloadKind::BTreeZipf};
    opts.backends = {BackendKind::Ssp};
    opts.txs = 60;
    const auto cells = ssp::test::gridCells(
        "shard", [](const sweep::SweepCell &c) { return c.machines <= 2; },
        opts);
    ASSERT_EQ(cells.size(), 2u + 3u * 2u);
    const auto serial = sweep::runSweep(cells, 1);
    const auto parallel = sweep::runSweep(cells, 3);
    EXPECT_EQ(sweep::sweepReport("shard", serial).dump(2),
              sweep::sweepReport("shard", parallel).dump(2));
}

TEST(ShardSweep, Report2pcMetricsAreZeroOnOneMachine)
{
    sweep::SweepGridOptions opts;
    opts.workloads = {WorkloadKind::BTreeZipf};
    opts.backends = {BackendKind::Ssp};
    opts.txs = 60;
    const auto cells = ssp::test::gridCells(
        "shard", [](const sweep::SweepCell &c) { return c.machines <= 2; },
        opts);
    const auto results = sweep::runSweep(cells, 2);
    const Json report =
        Json::parse(sweep::sweepReport("shard", results).dump(2));
    ASSERT_EQ(report["cells"].size(), cells.size());
    for (std::size_t i = 0; i < report["cells"].size(); ++i) {
        const Json &c = report["cells"].at(i);
        const std::string label = c["label"].asString();
        ASSERT_TRUE(c["ok"].asBool()) << label;
        const unsigned machines =
            static_cast<unsigned>(c["machines"].asUint());
        const Json &m = c["metrics"];
        // One shard per machine; the 1-machine cells take the
        // single-machine driver, which has no shards and no network.
        EXPECT_EQ(m["shard_cycles"].size(), machines > 1 ? machines : 0)
            << label;
        EXPECT_EQ(m["shard_committed_txs"].size(), m["shard_cycles"].size())
            << label;
        if (machines == 1) {
            EXPECT_EQ(c["cross_shard_pct"].asUint(), 0u) << label;
            for (const char *f :
                 {"single_shard_txs", "cross_shard_txs",
                  "prepare_round_trips", "cross_shard_aborts",
                  "network_messages", "network_cycles",
                  "coordinator_stall_cycles"})
                EXPECT_EQ(m[f].asUint(), 0u) << label << " " << f;
        } else if (c["cross_shard_pct"].asUint() > 0) {
            // Cross-shard cells must actually exercise the network.
            EXPECT_GT(m["cross_shard_txs"].asUint(), 0u) << label;
            EXPECT_GT(m["network_messages"].asUint(), 0u) << label;
        }
    }
}

} // namespace
} // namespace ssp::shard::test
