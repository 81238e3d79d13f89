/**
 * @file
 * The checked-in grid gate.  The nine BENCH_<figure>.json reports hold
 * the reproduction's results, and this suite is what keeps them from
 * drifting:
 *
 *  - GridReplay.* rerun fixed subsets of the larger grids (every
 *    sharing scenario, design and machine class) and require each
 *    report entry to equal its checked-in entry byte for byte;
 *  - SweepSchema.* check the checked-in files themselves: each grid
 *    matches its definition, every grid carries its schema, and the
 *    twin identities between grids hold on whole metrics objects.
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

#include "sweep/sweep_grid.hh"
#include "sweep/sweep_runner.hh"
#include "tests/test_helpers.hh"

namespace ssp::sweep::test
{
namespace
{

using ssp::test::expectReplaysCheckedIn;
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
    SweepGridOptions opts;
    opts.coreCounts = {1, 2, 4};
    expectReplaysCheckedIn("scale", opts, 54);
}

TEST(GridReplay, Scale64Cores1_4_16MatchCheckedInReport)
{
    // The big machine at full paper workload scale.
    SweepGridOptions opts;
    opts.coreCounts = {1, 4, 16};
    expectReplaysCheckedIn("scale64", opts, 54);
}

TEST(GridReplay, QueueC4Load60MatchesCheckedInReport)
{
    // Calibration, arrivals, admission and percentiles of the
    // event-driven serve path.
    SweepGridOptions opts;
    opts.coreCounts = {4};
    opts.loads = {0.6};
    expectReplaysCheckedIn("queue", opts, 9);
}

TEST(GridReplay, Scale256Cores1_16_128MatchCheckedInReport)
{
    // Broadcast and directory coherence; 128 cores crosses the
    // one-word sharer-bitmap boundary.
    SweepGridOptions opts;
    opts.coreCounts = {1, 16, 128};
    expectReplaysCheckedIn("scale256", opts, 54);
}

TEST(GridReplay, ShardMachines1_2_4MatchCheckedInReport)
{
    // The single-machine fast path, 2PC rounds and network pricing.
    SweepGridOptions opts;
    opts.machines = {1, 2, 4};
    expectReplaysCheckedIn("shard", opts, 63);
}

TEST(GridReplay, FaultMachines1_2Rates0_20MatchCheckedInReport)
{
    // The zero-rate identity path, the logged 2PC crash windows,
    // recovery against failover, and the lossy RPC retry loop.
    SweepGridOptions opts;
    opts.machines = {1, 2};
    opts.faultRates = {0, 20};
    expectReplaysCheckedIn("fault", opts, 72);
}

// ---- schema and twin identities of the checked-in reports -----------------

TEST(SweepSchema, EveryCheckedInGridMatchesItsDefinition)
{
    // A grid definition edited without regenerating its report fails
    // here: the labels, seeds and transaction counts of every
    // checked-in cell must be what buildFigureGrid produces today.
    for (const std::string figure :
         {"smoke", "fig5", "chan", "scale", "scale64", "scale256",
          "queue", "shard", "fault"}) {
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

TEST(SweepSchema, QueueCheckedInReportCarriesServeSchemaAndEveryRequest)
{
    // Every open-loop cell carries the arrival coordinate and the
    // tail-latency/queueing metrics, its percentiles are ordered, and
    // every generated request was either acked or shed.
    const Json doc = loadCheckedIn("BENCH_queue.json");
    ASSERT_EQ(doc["figure"].asString(), "queue");
    ASSERT_GT(doc["cells"].size(), 0u);
    const char *fields[] = {"p50_cycles",   "p99_cycles",
                            "p999_cycles",  "mean_queue_depth",
                            "rejected_txs", "offered_load"};
    for (std::size_t i = 0; i < doc["cells"].size(); ++i) {
        const Json &c = doc["cells"].at(i);
        const std::string label = c["label"].asString();
        ASSERT_TRUE(c["ok"].asBool()) << label;
        EXPECT_TRUE(c.has("arrival")) << label;
        const Json &m = c["metrics"];
        for (const char *f : fields)
            ASSERT_TRUE(m.has(f)) << label << " lacks " << f;
        EXPECT_LE(m["p50_cycles"].asUint(), m["p99_cycles"].asUint())
            << label;
        EXPECT_LE(m["p99_cycles"].asUint(), m["p999_cycles"].asUint())
            << label;
        EXPECT_EQ(m["committed_txs"].asUint() + m["rejected_txs"].asUint(),
                  c["txs"].asUint())
            << label << " lost requests";
    }
}

TEST(SweepSchema, ShardCheckedInReportKeeps2pcSchemaAndScaleTwins)
{
    // Every cell carries the machines coordinate; the cross-shard
    // fraction and the 2PC counters exist exactly on multi-machine
    // cells, and a nonzero fraction priced network traffic; every
    // 1-machine cell's metrics object equals the scale grid's 4-core
    // cell of the same (design, workload) — the single-shard fast path.
    const Json doc = loadCheckedIn("BENCH_shard.json");
    const Json scale = loadCheckedIn("BENCH_scale.json");
    const auto scale_cells = cellsByLabel(scale);
    ASSERT_EQ(doc["figure"].asString(), "shard");
    ASSERT_GT(doc["cells"].size(), 0u);
    const char *tpc_fields[] = {
        "single_shard_txs", "cross_shard_txs", "prepare_round_trips",
        "cross_shard_aborts", "coordinator_stall_cycles", "network_messages",
        "network_cycles", "shard_cycles", "shard_committed_txs"};
    std::size_t single = 0, multi = 0;
    for (std::size_t i = 0; i < doc["cells"].size(); ++i) {
        const Json &c = doc["cells"].at(i);
        const std::string label = c["label"].asString();
        ASSERT_TRUE(c["ok"].asBool()) << label;
        ASSERT_TRUE(c.has("machines")) << label;
        const Json &m = c["metrics"];
        const std::uint64_t machines = c["machines"].asUint();
        const bool clustered = machines > 1;
        EXPECT_EQ(c.has("cross_shard_pct"), clustered) << label;
        for (const char *f : tpc_fields)
            EXPECT_EQ(m.has(f), clustered) << label << " " << f;
        if (clustered) {
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
    // Every cell carries the machines / fault_rate_tenths / replicated
    // coordinates; the fault counters exist exactly on injecting cells
    // (rate > 0) and the log-shipping counters exactly on replicated
    // ones; every injected failure was recovered in place or failed
    // over, and replication decides which, exclusively; and every
    // zero-fault unreplicated cell's metrics object equals its shard
    // (clustered) or scale (single-machine) twin — faults are opt-in.
    const Json doc = loadCheckedIn("BENCH_fault.json");
    const Json shard = loadCheckedIn("BENCH_shard.json");
    const Json scale = loadCheckedIn("BENCH_scale.json");
    const auto shard_cells = cellsByLabel(shard);
    const auto scale_cells = cellsByLabel(scale);
    ASSERT_EQ(doc["figure"].asString(), "fault");
    ASSERT_GT(doc["cells"].size(), 0u);
    const char *fault_fields[] = {
        "injected_power_fails", "coordinator_crashes", "participant_crashes",
        "recoveries", "failovers", "recovery_stall_cycles",
        "failover_stall_cycles", "presumed_aborts", "decision_records",
        "messages_lost", "rpc_retries", "rpc_timeout_stall_cycles",
        "committed_despite_faults"};
    const char *ship_fields[] = {"log_ship_messages", "log_ship_cycles"};
    std::size_t injecting = 0, quiet = 0, twins = 0;
    for (std::size_t i = 0; i < doc["cells"].size(); ++i) {
        const Json &c = doc["cells"].at(i);
        const std::string label = c["label"].asString();
        ASSERT_TRUE(c["ok"].asBool()) << label;
        for (const char *coord : {"machines", "fault_rate_tenths",
                                  "replicated"})
            ASSERT_TRUE(c.has(coord)) << label << " lacks " << coord;
        const Json &m = c["metrics"];
        const bool injects = c["fault_rate_tenths"].asUint() > 0;
        const bool replicated = c["replicated"].asBool();
        for (const char *f : fault_fields)
            EXPECT_EQ(m.has(f), injects) << label << " " << f;
        for (const char *f : ship_fields)
            EXPECT_EQ(m.has(f), replicated) << label << " " << f;
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
    // Every checked-in interconnect cell names its coherence model and
    // its message count; the directory-only counters exist exactly on
    // directory cells; every (workload, design, cores) point has both
    // modes; and on every contended (Zipf, >= 128 cores) pair the
    // directory moves strictly less traffic than the broadcast bus —
    // the grid's headline claim.
    const Json doc = loadCheckedIn("BENCH_scale256.json");
    ASSERT_EQ(doc["figure"].asString(), "scale256");
    ASSERT_GT(doc["cells"].size(), 0u);
    const char *dir_fields[] = {"directory_lookups", "hop_traversal_cycles",
                                "snoop_filter_evictions",
                                "back_invalidations"};
    // (workload, backend, cores) -> mode -> coherence_messages
    std::map<std::tuple<std::string, std::string, std::uint64_t>,
             std::map<std::string, std::uint64_t>>
        messages;
    for (std::size_t i = 0; i < doc["cells"].size(); ++i) {
        const Json &c = doc["cells"].at(i);
        const std::string label = c["label"].asString();
        ASSERT_TRUE(c["ok"].asBool()) << label;
        ASSERT_TRUE(c.has("coherence")) << label;
        const std::string mode = c["coherence"].asString();
        ASSERT_TRUE(mode == "broadcast" || mode == "directory") << label;
        const Json &m = c["metrics"];
        ASSERT_TRUE(m.has("coherence_messages")) << label;
        for (const char *f : dir_fields)
            EXPECT_EQ(m.has(f), mode == "directory") << label << " " << f;
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

    // Legacy broadcast reports stay free of the coherence fields.
    const Json smoke = loadCheckedIn("BENCH_smoke.json");
    for (std::size_t i = 0; i < smoke["cells"].size(); ++i) {
        const Json &c = smoke["cells"].at(i);
        EXPECT_FALSE(c.has("coherence")) << c["label"].asString();
        EXPECT_FALSE(c["metrics"].has("coherence_messages"))
            << c["label"].asString();
    }
}

} // namespace
} // namespace ssp::sweep::test
