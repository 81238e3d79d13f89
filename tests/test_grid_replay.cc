/**
 * @file
 * The checked-in grid gate.  Every grid of knownFigures() has a
 * checked-in BENCH_<figure>.json report; the thirteen hold the
 * reproduction's results, and this suite is what keeps them from
 * drifting:
 *
 *  - GridReplay.* rerun fixed subsets of the larger grids (every
 *    sharing scenario, design and machine class) and require each
 *    report entry to equal its checked-in entry byte for byte;
 *  - SweepSchema.* check the checked-in files themselves: each grid
 *    matches its definition, every cell carries every coordinate and
 *    every metric of the list (zero where it cannot apply), every cell
 *    obeys the conservation laws between its metrics, and the twin
 *    identities between grids hold on whole metrics objects.
 *
 * The replays take seconds, so the suite carries the ctest label
 * "replay"; the sanitizer builds run `ctest -LE replay`.
 */

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "sim/metrics.hh"
#include "sweep/sweep_grid.hh"
#include "sweep/sweep_runner.hh"
#include "tests/test_helpers.hh"

namespace ssp::sweep::test
{
namespace
{

using ssp::test::expectReplaysCheckedIn;
using ssp::test::gridCells;
using ssp::test::loadCheckedIn;

/** Index a report's cells by label; @p doc must outlive the map. */
std::map<std::string, const Json *>
cellsByLabel(const Json &doc)
{
    std::map<std::string, const Json *> out;
    for (std::size_t i = 0; i < doc["cells"].size(); ++i) {
        const Json &c = doc["cells"].at(i);
        out[c["label"].asString()] = &c;
    }
    return out;
}

/** The metrics object of @p label in @p cells, or nullptr. */
const Json *
twinMetrics(const std::map<std::string, const Json *> &cells,
            const std::string &label)
{
    const auto it = cells.find(label);
    return it == cells.end() ? nullptr : &(*it->second)["metrics"];
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// ---- replays ---------------------------------------------------------------

TEST(GridReplay, ScaleCores1To4MatchCheckedInReport)
{
    // The single-core model and the concurrent conflict/abort/retry
    // path at 2 and 4 cores, on every scale scenario.
    const auto cells =
        gridCells("scale", [](const SweepCell &c) { return c.cores <= 4; });
    ASSERT_EQ(cells.size(), 54u);
    expectReplaysCheckedIn("scale", cells);
}

TEST(GridReplay, Scale64Cores1_4_16MatchCheckedInReport)
{
    // The big machine at full paper workload scale.
    const auto cells = gridCells("scale64", [](const SweepCell &c) {
        return c.cores == 1 || c.cores == 4 || c.cores == 16;
    });
    ASSERT_EQ(cells.size(), 54u);
    expectReplaysCheckedIn("scale64", cells);
}

TEST(GridReplay, Scale64Cores16_4_16OnOneThreadMatchCheckedInReport)
{
    // Every machine after the first builds its caches from blocks an
    // earlier one retired.  The 4-core cells take four of the sixteen
    // cores' L1 and L2 blocks, and the second 16-core pass takes all
    // sixteen back, four of them last used by the smaller machine.
    // One worker, so every cell recycles on this thread, in order.
    SweepGridOptions opts;
    opts.workloads = {WorkloadKind::BTreeZipf, WorkloadKind::HashRand};
    std::vector<SweepCell> cells;
    for (unsigned cores : {16u, 4u, 16u}) {
        const auto part = gridCells(
            "scale64",
            [cores](const SweepCell &c) { return c.cores == cores; }, opts);
        ASSERT_EQ(part.size(), 6u);
        cells.insert(cells.end(), part.begin(), part.end());
    }
    const std::uint64_t recycled = Cache::recycledBlocks();
    expectReplaysCheckedIn("scale64", cells, 1);
    EXPECT_GT(Cache::recycledBlocks(), recycled);
}

TEST(GridReplay, QueueC4Load60MatchesCheckedInReport)
{
    // Calibration, arrivals, admission and percentiles of the
    // event-driven serve path.
    const auto cells = gridCells("queue", [](const SweepCell &c) {
        return c.cores == 4 && c.offeredLoad == 0.6;
    });
    ASSERT_EQ(cells.size(), 9u);
    expectReplaysCheckedIn("queue", cells);
}

TEST(GridReplay, Scale256Cores1MatchCheckedInReport)
{
    // Broadcast and directory coherence on one core.  Its directory
    // cells hold the only snoop-filter evictions in any checked-in
    // grid, so the sanitizer replay runs this one too.
    const auto cells =
        gridCells("scale256", [](const SweepCell &c) { return c.cores == 1; });
    ASSERT_EQ(cells.size(), 18u);
    expectReplaysCheckedIn("scale256", cells);
}

TEST(GridReplay, Scale256Cores16_128MatchCheckedInReport)
{
    // Broadcast and directory coherence; 128 cores crosses the
    // one-word sharer-bitmap boundary.
    const auto cells = gridCells("scale256", [](const SweepCell &c) {
        return c.cores == 16 || c.cores == 128;
    });
    ASSERT_EQ(cells.size(), 36u);
    expectReplaysCheckedIn("scale256", cells);
}

TEST(GridReplay, ShardMachines1_2_4MatchCheckedInReport)
{
    // The single-machine fast path, 2PC rounds and network pricing.
    const auto cells = gridCells(
        "shard", [](const SweepCell &c) { return c.machines <= 4; });
    ASSERT_EQ(cells.size(), 63u);
    expectReplaysCheckedIn("shard", cells);
}

TEST(GridReplay, FaultMachines1_2Rates0_20MatchCheckedInReport)
{
    // The zero-rate identity path, the logged 2PC crash windows,
    // recovery against failover, and the lossy RPC retry loop.
    const auto cells = gridCells("fault", [](const SweepCell &c) {
        return c.machines <= 2 && c.faultRate != 5;
    });
    ASSERT_EQ(cells.size(), 72u);
    expectReplaysCheckedIn("fault", cells);
}

// ---- schema and twin identities of the checked-in reports -----------------

TEST(SweepSchema, EveryCheckedInGridMatchesItsDefinition)
{
    // A grid definition edited without regenerating its report fails
    // here: the labels, seeds and transaction counts of every
    // checked-in cell must be what buildFigureGrid produces today.
    for (const std::string &figure : knownFigures()) {
        SCOPED_TRACE(figure);
        const Json doc = loadCheckedIn("BENCH_" + figure + ".json");
        EXPECT_EQ(doc["figure"].asString(), figure);
        const auto checked_in = cellsByLabel(doc);
        const std::vector<SweepCell> cells = buildFigureGrid(figure);
        std::set<std::string> labels;
        for (const SweepCell &cell : cells) {
            const std::string label = cell.label();
            labels.insert(label);
            const auto it = checked_in.find(label);
            if (it == checked_in.end()) {
                ADD_FAILURE() << label << " is not in the report";
                continue;
            }
            const Json &c = *it->second;
            EXPECT_TRUE(c["ok"].asBool()) << label;
            char seed_hex[32];
            std::snprintf(seed_hex, sizeof(seed_hex), "0x%016llx",
                          static_cast<unsigned long long>(cell.scale.seed));
            EXPECT_EQ(c["seed"].asString(), seed_hex) << label;
            EXPECT_EQ(c["txs"].asUint(), cell.txs) << label;
        }
        EXPECT_EQ(labels.size(), cells.size());
        for (const auto &[label, c] : checked_in)
            EXPECT_TRUE(labels.count(label)) << label << " is not in the grid";
    }
}

TEST(SweepSchema, EveryCellCarriesEveryMetric)
{
    // Schema v2: every cell of every checked-in grid carries the same
    // coordinates and exactly the metric list, in list order, and a
    // metric that cannot apply to a cell reads zero there.
    const std::vector<std::string> coordinates = {
        "label", "backend", "workload", "cores", "txs",
        "nvram_latency_multiplier", "ssp_cache_fixed_latency",
        "nvram_channels", "key_shards", "arrival", "coherence", "machines", "cross_shard_pct",
        "fault_rate_tenths", "replicated", "seed", "ok", "metrics"};
    std::vector<std::string> metrics;
    for (const Metric &metric : metricList())
        metrics.emplace_back(metric.name);
    auto keys = [](const Json &object) {
        std::vector<std::string> out;
        for (const auto &member : object.members())
            out.push_back(member.first);
        return out;
    };
    const char *two_pc[] = {"single_shard_txs", "cross_shard_txs",
                            "prepare_round_trips", "cross_shard_aborts",
                            "coordinator_stall_cycles", "network_messages",
                            "network_cycles"};
    const char *directory[] = {"directory_lookups", "hop_traversal_cycles",
                               "snoop_filter_evictions",
                               "back_invalidations"};
    // decision_records is missing: the armed harness logs every 2PC
    // decision, replicated rate-0 cells included.
    const char *faults[] = {
        "injected_power_fails", "coordinator_crashes", "participant_crashes",
        "recoveries", "failovers", "recovery_stall_cycles",
        "failover_stall_cycles", "presumed_aborts", "messages_lost",
        "rpc_retries", "rpc_timeout_stall_cycles",
        "committed_despite_faults"};
    const char *log_ship[] = {"log_ship_messages", "log_ship_cycles"};
    const char *serving[] = {"p50_cycles", "p99_cycles", "p999_cycles",
                             "rejected_txs", "mean_queue_depth"};
    std::size_t single_machine = 0, broadcast = 0, fault_free = 0,
                unarmed = 0, unreplicated = 0, closed_loop = 0;
    for (const std::string &figure : knownFigures()) {
        SCOPED_TRACE(figure);
        const Json doc = loadCheckedIn("BENCH_" + figure + ".json");
        EXPECT_EQ(doc["schema"].asString(), "ssp-bench-report-v2");
        for (std::size_t i = 0; i < doc["cells"].size(); ++i) {
            const Json &c = doc["cells"].at(i);
            const std::string label = c["label"].asString();
            ASSERT_EQ(keys(c), coordinates) << label;
            const Json &m = c["metrics"];
            ASSERT_EQ(keys(m), metrics) << label;
            auto zero = [&](const char *f) {
                EXPECT_EQ(m[f].asDouble(), 0.0) << label << " " << f;
            };
            const bool rate0 = c["fault_rate_tenths"].asUint() == 0;
            const bool replicated = c["replicated"].asBool();
            if (c["machines"].asUint() == 1 && rate0 && !replicated) {
                // The single-machine driver: no shards, no network.
                ++single_machine;
                for (const char *f : two_pc)
                    zero(f);
                EXPECT_EQ(m["shard_cycles"].size(), 0u) << label;
                EXPECT_EQ(m["shard_committed_txs"].size(), 0u) << label;
            }
            if (c["coherence"].asString() == "broadcast") {
                ++broadcast;
                for (const char *f : directory)
                    zero(f);
            }
            if (rate0) {
                ++fault_free;
                for (const char *f : faults)
                    zero(f);
                if (!replicated) {
                    ++unarmed;
                    zero("decision_records");
                }
            }
            if (!replicated) {
                ++unreplicated;
                for (const char *f : log_ship)
                    zero(f);
            }
            if (m["offered_load"].asDouble() == 0) {
                ++closed_loop;
                for (const char *f : serving)
                    zero(f);
            }
        }
    }
    EXPECT_GT(single_machine, 0u);
    EXPECT_GT(broadcast, 0u);
    EXPECT_GT(fault_free, unarmed);
    EXPECT_GT(unarmed, 0u);
    EXPECT_GT(unreplicated, 0u);
    EXPECT_GT(closed_loop, 0u);
}

TEST(SweepSchema, ConservationLaws)
{
    // Identities every cell of every checked-in grid must satisfy,
    // whatever it ran: the write categories partition the NVRAM
    // writes, the per-core commits add up (but for Memcached's GETs),
    // the derived per-transaction cycles are the quotient they claim
    // to be, every retry follows an abort, and the latency percentiles
    // are ordered.
    std::size_t cells = 0, cross_shard_cells = 0;
    for (const std::string &figure : knownFigures()) {
        SCOPED_TRACE(figure);
        const Json doc = loadCheckedIn("BENCH_" + figure + ".json");
        for (std::size_t i = 0; i < doc["cells"].size(); ++i) {
            const Json &c = doc["cells"].at(i);
            const std::string label = c["label"].asString();
            const Json &m = c["metrics"];
            auto u = [&](const char *f) { return m[f].asUint(); };
            ++cells;
            EXPECT_EQ(u("nvram_writes"), u("data_writes") +
                                             u("logging_writes") +
                                             u("consolidation_writes"))
                << label;
            const std::uint64_t committed = u("committed_txs");
            ASSERT_GT(committed, 0u) << label;
            const double cycles = m["cycles"].asDouble();
            EXPECT_NEAR(m["avg_cycles_per_tx"].asDouble() *
                            static_cast<double>(committed),
                        cycles, 1e-12 * cycles)
                << label;
            EXPECT_LE(u("tx_retries"), u("tx_aborts")) << label;
            EXPECT_LE(u("p50_cycles"), u("p99_cycles")) << label;
            EXPECT_LE(u("p99_cycles"), u("p999_cycles")) << label;

            const bool cluster = c["machines"].asUint() > 1 ||
                                 c["fault_rate_tenths"].asUint() > 0 ||
                                 c["replicated"].asBool();
            if (!cluster) {
                std::uint64_t core_txs = 0;
                for (std::size_t k = 0; k < m["core_txs"].size(); ++k)
                    core_txs += m["core_txs"].at(k).asUint();
                // core_txs counts operations.  Memcached's GETs (a
                // tenth of its operations) read without a transaction;
                // every other workload commits each operation.
                if (c["workload"].asString() == "Memcached")
                    EXPECT_LT(committed, core_txs) << label;
                else
                    EXPECT_EQ(committed, core_txs) << label;
                continue;
            }
            // The shard rollup sums each participant's commit, so a
            // cross-shard transaction counts once per participant (two
            // here) rather than once per client transaction.
            const std::uint64_t cross = u("cross_shard_txs");
            if (cross > 0)
                ++cross_shard_cells;
            EXPECT_EQ(committed, u("single_shard_txs") + 2 * cross)
                << label;
        }
    }
    EXPECT_GT(cells, 0u);
    EXPECT_GT(cross_shard_cells, 0u);
}

TEST(SweepSchema, SmokeCheckedInCellEqualsTheScaleC1Cell)
{
    // The scale grid's (SPS, SSP, 1 core) cell runs the smoke cell's
    // configuration and stream, so the two checked-in entries carry the
    // same seed and the same metrics object.
    const Json smoke = loadCheckedIn("BENCH_smoke.json");
    const Json scale = loadCheckedIn("BENCH_scale.json");
    const auto scale_cells = cellsByLabel(scale);
    ASSERT_EQ(smoke["cells"].size(), 1u);
    const Json &s = smoke["cells"].at(0);
    const auto it = scale_cells.find("scale/SSP/SPS/c1");
    ASSERT_TRUE(it != scale_cells.end());
    EXPECT_EQ(s["seed"].asString(), (*it->second)["seed"].asString());
    EXPECT_EQ(s["metrics"].dump(2), (*it->second)["metrics"].dump(2));
}

TEST(SweepSchema, QueueCheckedInReportAccountsForEveryRequest)
{
    // Every open-loop cell ran at a positive load, its percentiles are
    // ordered, and every generated request was either acked or shed.
    const Json doc = loadCheckedIn("BENCH_queue.json");
    ASSERT_EQ(doc["figure"].asString(), "queue");
    ASSERT_GT(doc["cells"].size(), 0u);
    for (std::size_t i = 0; i < doc["cells"].size(); ++i) {
        const Json &c = doc["cells"].at(i);
        const std::string label = c["label"].asString();
        ASSERT_TRUE(c["ok"].asBool()) << label;
        const Json &m = c["metrics"];
        EXPECT_GT(m["offered_load"].asDouble(), 0.0) << label;
        EXPECT_LE(m["p50_cycles"].asUint(), m["p99_cycles"].asUint())
            << label;
        EXPECT_LE(m["p99_cycles"].asUint(), m["p999_cycles"].asUint())
            << label;
        EXPECT_EQ(m["committed_txs"].asUint() + m["rejected_txs"].asUint(),
                  c["txs"].asUint())
            << label << " lost requests";
    }
}

TEST(SweepSchema, ShardCheckedInReportPrices2pcAndKeepsScaleTwins)
{
    // Every multi-machine cell reports one cycle count per shard, and
    // a nonzero cross-shard fraction priced network traffic; every
    // 1-machine cell's metrics object equals the scale grid's 4-core
    // cell of the same (design, workload) — the single-shard fast path.
    const Json doc = loadCheckedIn("BENCH_shard.json");
    const Json scale = loadCheckedIn("BENCH_scale.json");
    const auto scale_cells = cellsByLabel(scale);
    ASSERT_EQ(doc["figure"].asString(), "shard");
    ASSERT_GT(doc["cells"].size(), 0u);
    std::size_t single = 0, multi = 0;
    for (std::size_t i = 0; i < doc["cells"].size(); ++i) {
        const Json &c = doc["cells"].at(i);
        const std::string label = c["label"].asString();
        ASSERT_TRUE(c["ok"].asBool()) << label;
        const Json &m = c["metrics"];
        const std::uint64_t machines = c["machines"].asUint();
        if (machines > 1) {
            ++multi;
            EXPECT_EQ(m["shard_cycles"].size(), machines) << label;
            if (c["cross_shard_pct"].asUint() > 0) {
                EXPECT_GT(m["cross_shard_txs"].asUint(), 0u) << label;
                EXPECT_GT(m["network_cycles"].asUint(), 0u) << label;
            }
            continue;
        }
        // shard/SSP/SPS/c4/m1 -> scale/SSP/SPS/c4
        ++single;
        ASSERT_EQ(label.rfind("shard/", 0), 0u) << label;
        ASSERT_TRUE(endsWith(label, "/m1")) << label;
        const std::string twin =
            "scale/" + label.substr(6, label.size() - 6 - 3);
        const Json *ref = twinMetrics(scale_cells, twin);
        ASSERT_NE(ref, nullptr) << "no scale twin for " << label;
        EXPECT_EQ(m.dump(2), ref->dump(2)) << label;
    }
    EXPECT_GT(single, 0u);
    EXPECT_GT(multi, 0u);
}

TEST(SweepSchema, FaultCheckedInReportConservesFailuresAndTwins)
{
    // Every injected failure was recovered in place or failed over,
    // and replication decides which, exclusively; and every
    // zero-fault unreplicated cell's metrics object equals its shard
    // (clustered) or scale (single-machine) twin — faults are opt-in.
    const Json doc = loadCheckedIn("BENCH_fault.json");
    const Json shard = loadCheckedIn("BENCH_shard.json");
    const Json scale = loadCheckedIn("BENCH_scale.json");
    const auto shard_cells = cellsByLabel(shard);
    const auto scale_cells = cellsByLabel(scale);
    ASSERT_EQ(doc["figure"].asString(), "fault");
    ASSERT_GT(doc["cells"].size(), 0u);
    std::size_t injecting = 0, quiet = 0, twins = 0;
    for (std::size_t i = 0; i < doc["cells"].size(); ++i) {
        const Json &c = doc["cells"].at(i);
        const std::string label = c["label"].asString();
        ASSERT_TRUE(c["ok"].asBool()) << label;
        const Json &m = c["metrics"];
        const bool injects = c["fault_rate_tenths"].asUint() > 0;
        const bool replicated = c["replicated"].asBool();
        if (injects) {
            ++injecting;
            const std::uint64_t fails = m["injected_power_fails"].asUint();
            const std::uint64_t recoveries = m["recoveries"].asUint();
            const std::uint64_t failovers = m["failovers"].asUint();
            EXPECT_GT(fails, 0u) << label << " injected nothing";
            EXPECT_EQ(recoveries + failovers, fails)
                << label << " lost a failure";
            // Replication turns every in-place recovery into a failover.
            if (replicated) {
                EXPECT_EQ(recoveries, 0u) << label << " recovered in place";
            } else {
                EXPECT_EQ(failovers, 0u) << label << " failed over";
            }
            continue;
        }
        if (replicated)
            continue;
        // Zero-fault, unreplicated: the harness never ran.
        // fault/SSP/SPS/c4/m2/x10/f0 -> shard/SSP/SPS/c4/m2/x10
        // fault/SSP/SPS/c4/m1/f0     -> scale/SSP/SPS/c4
        ++quiet;
        ASSERT_EQ(label.rfind("fault/", 0), 0u) << label;
        ASSERT_TRUE(endsWith(label, "/f0")) << label;
        std::string base = label.substr(6, label.size() - 6 - 3);
        const Json *ref = nullptr;
        if (c["machines"].asUint() > 1) {
            ref = twinMetrics(shard_cells, "shard/" + base);
        } else {
            ASSERT_TRUE(endsWith(base, "/m1")) << label;
            base.resize(base.size() - 3);
            ref = twinMetrics(scale_cells, "scale/" + base);
        }
        ASSERT_NE(ref, nullptr) << "no twin for " << label;
        ++twins;
        EXPECT_EQ(m.dump(2), ref->dump(2)) << label;
    }
    EXPECT_GT(injecting, 0u);
    EXPECT_GT(quiet, 0u);
    EXPECT_EQ(twins, quiet);
}

TEST(SweepSchema, Scale256CheckedInReportPairsModesAndDirectoryWins)
{
    // Every (workload, design, cores) point has both coherence modes,
    // and on every contended (Zipf, >= 128 cores) pair the
    // directory moves strictly less traffic than the broadcast bus —
    // the grid's headline claim.
    const Json doc = loadCheckedIn("BENCH_scale256.json");
    ASSERT_EQ(doc["figure"].asString(), "scale256");
    ASSERT_GT(doc["cells"].size(), 0u);
    // (workload, backend, cores) -> mode -> coherence_messages
    std::map<std::tuple<std::string, std::string, std::uint64_t>,
             std::map<std::string, std::uint64_t>>
        messages;
    for (std::size_t i = 0; i < doc["cells"].size(); ++i) {
        const Json &c = doc["cells"].at(i);
        const std::string label = c["label"].asString();
        ASSERT_TRUE(c["ok"].asBool()) << label;
        const std::string mode = c["coherence"].asString();
        ASSERT_TRUE(mode == "broadcast" || mode == "directory") << label;
        const Json &m = c["metrics"];
        messages[{c["workload"].asString(), c["backend"].asString(),
                  c["cores"].asUint()}][mode] =
            m["coherence_messages"].asUint();
    }
    std::size_t contended = 0;
    for (const auto &[key, by_mode] : messages) {
        const auto &[workload, backend, cores] = key;
        ASSERT_EQ(by_mode.size(), 2u)
            << "unpaired modes for " << workload << "/" << backend << "/c"
            << cores;
        if (workload.find("Zipf") != std::string::npos && cores >= 128) {
            ++contended;
            EXPECT_LT(by_mode.at("directory"), by_mode.at("broadcast"))
                << workload << "/" << backend << "/c" << cores;
        }
    }
    EXPECT_GT(contended, 0u);
}

TEST(SweepSchema, Fig5PaperDirectionalClaims)
{
    // The paper's directional claims (Figs 5-7), per workload at 1 and
    // 4 threads: SSP is faster than both logging designs, writes less
    // NVRAM than UNDO-LOG, and logs less than both.  SSP also writes
    // less NVRAM than REDO-LOG in the paper, but not in this model on
    // the cells below (consolidation and journal lines outweigh REDO's
    // saved log writes; README "Reproduction").  A model change that
    // closes or widens that gap updates this set and README together.
    // Skewed access keeps hot pages TLB-resident, so each Zipf workload
    // consolidates less per transaction under SSP than its Rand twin
    // (section 5.2).
    const std::set<std::string> ssp_writes_at_least_redo = {
        "Hash-Rand/c1", "RBTree-Rand/c1", "RBTree-Zipf/c1", "SPS/c1",
        "RBTree-Rand/c4"};
    const Json doc = loadCheckedIn("BENCH_fig5.json");
    ASSERT_EQ(doc["figure"].asString(), "fig5");
    const auto cells = cellsByLabel(doc);
    for (const std::string workload :
         {"BTree-Rand", "BTree-Zipf", "Hash-Rand", "Hash-Zipf",
          "RBTree-Rand", "RBTree-Zipf", "SPS"}) {
        for (const std::string cores : {"c1", "c4"}) {
            const std::string point = workload + "/" + cores;
            SCOPED_TRACE(point);
            const Json *ssp = twinMetrics(cells, "fig5/SSP/" + point);
            const Json *undo = twinMetrics(cells, "fig5/UNDO-LOG/" + point);
            const Json *redo = twinMetrics(cells, "fig5/REDO-LOG/" + point);
            ASSERT_TRUE(ssp != nullptr && undo != nullptr && redo != nullptr);
            auto of = [](const Json *m, const char *key) {
                return (*m)[key].asDouble();
            };
            EXPECT_GT(of(ssp, "tps"), of(undo, "tps"));
            EXPECT_GT(of(ssp, "tps"), of(redo, "tps"));
            EXPECT_LT(of(ssp, "nvram_writes"), of(undo, "nvram_writes"));
            EXPECT_LT(of(ssp, "logging_writes"), of(undo, "logging_writes"));
            EXPECT_LT(of(ssp, "logging_writes"), of(redo, "logging_writes"));
            EXPECT_EQ(of(ssp, "nvram_writes") >= of(redo, "nvram_writes"),
                      ssp_writes_at_least_redo.count(point) == 1);
            if (endsWith(workload, "-Zipf")) {
                const std::string rand_point =
                    workload.substr(0, workload.size() - 4) + "Rand/" +
                    cores;
                const Json *twin =
                    twinMetrics(cells, "fig5/SSP/" + rand_point);
                ASSERT_NE(twin, nullptr) << rand_point;
                auto consolidations_per_tx = [&](const Json *m) {
                    return of(m, "consolidation_writes") /
                           of(m, "committed_txs");
                };
                EXPECT_LT(consolidations_per_tx(ssp),
                          consolidations_per_tx(twin))
                    << "vs " << rand_point;
            }
        }
    }
}

} // namespace
} // namespace ssp::sweep::test
