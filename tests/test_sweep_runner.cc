/**
 * @file
 * Sweep subsystem tests: grid construction, determinism of the parallel
 * runner (identical results for any worker count), the metric list,
 * JSON round-trip of the emitted BENCH_*.json report, replays of
 * checked-in grid cells, and the sweep CLI's value parsers.
 */

#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "sim/metrics.hh"
#include "sim/system_builder.hh"
#include "sweep/figure_spec.hh"
#include "sweep/sweep_grid.hh"
#include "sweep/sweep_runner.hh"
#include "tests/test_helpers.hh"

namespace ssp::sweep::test
{
namespace
{

using ssp::test::expectReplaysCheckedIn;
using ssp::test::gridCells;
using ssp::test::expectSameMetrics;
using ssp::test::raw64;
using ssp::test::smallConfig;
using ssp::test::txWrite64;

/** A tiny fig5 grid that keeps the suite fast on one core. */
SweepGridOptions
tinyOptions()
{
    SweepGridOptions opts;
    opts.backends = {BackendKind::UndoLog, BackendKind::Ssp};
    opts.workloads = {WorkloadKind::BTreeRand, WorkloadKind::Sps};
    opts.txs = 80;
    opts.scale.keySpace = 256;
    opts.scale.spsElements = 1024;
    opts.scale.seed = 7;
    return opts;
}

TEST(SweepGrid, KnownFiguresBuildNonEmptyGrids)
{
    EXPECT_EQ(knownFigures(),
              (std::vector<std::string>{"fig5", "fig8", "fig9", "table3",
                                        "table45", "chan", "scale",
                                        "scale64", "scale256", "queue",
                                        "shard", "fault", "smoke"}));
    for (const std::string &figure : knownFigures()) {
        const auto cells = buildFigureGrid(figure);
        ASSERT_FALSE(cells.empty()) << figure;
        for (const SweepCell &cell : cells) {
            EXPECT_EQ(cell.figure, figure);
            EXPECT_GT(cell.txs, 0u);
        }
    }
    EXPECT_THROW(buildFigureGrid("fig42"), std::runtime_error);
}

TEST(SweepGrid, UnknownFigureErrorListsEveryKnownGrid)
{
    // A typo'd --figure must be a one-round-trip fix: the error names
    // all the grids the caller could have meant.
    try {
        buildFigureGrid("fig42");
        FAIL() << "unknown figure did not throw";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("fig42"), std::string::npos);
        EXPECT_NE(msg.find("known grids:"), std::string::npos);
        for (const std::string &figure : knownFigures())
            EXPECT_NE(msg.find(figure), std::string::npos) << figure;
    }
}

TEST(SweepGrid, PaperGridShapes)
{
    // fig5: 2 thread counts x 7 microbenchmarks x 3 designs.
    EXPECT_EQ(buildFigureGrid("fig5").size(), 2u * 7u * 3u);
    // fig8: 2 workloads x 5 latency multipliers x 3 designs.
    EXPECT_EQ(buildFigureGrid("fig8").size(), 2u * 5u * 3u);
    // fig9: 7 REDO-LOG baselines + 5 latencies x 7 workloads of SSP.
    EXPECT_EQ(buildFigureGrid("fig9").size(), 7u + 5u * 7u);
    // table3: SSP across all nine workloads.
    EXPECT_EQ(buildFigureGrid("table3").size(), 9u);
    // scale: 4 core counts x 6 workloads x 3 designs.
    EXPECT_EQ(buildFigureGrid("scale").size(), 4u * 6u * 3u);
    EXPECT_EQ(buildFigureGrid("smoke").size(), 1u);
}

TEST(SweepGrid, FiltersApply)
{
    SweepGridOptions opts;
    opts.backends = {BackendKind::Ssp};
    for (const SweepCell &cell : buildFigureGrid("fig5", opts))
        EXPECT_EQ(cell.backend, BackendKind::Ssp);

    opts.workloads = {WorkloadKind::Sps};
    const auto cells = buildFigureGrid("fig9", opts);
    EXPECT_EQ(cells.size(), 5u); // SSP at five SSP-cache latencies
    for (const SweepCell &cell : cells) {
        EXPECT_EQ(cell.backend, BackendKind::Ssp);
        EXPECT_EQ(cell.workload, WorkloadKind::Sps);
    }
}

TEST(SweepGrid, SeedsAreStableUnderFiltering)
{
    // A cell's private RNG stream must not depend on which other cells
    // were filtered out of the grid.
    const auto full = buildFigureGrid("fig5");
    SweepGridOptions opts;
    opts.backends = {BackendKind::Ssp};
    const auto filtered = buildFigureGrid("fig5", opts);
    for (const SweepCell &f : filtered) {
        bool matched = false;
        for (const SweepCell &cell : full) {
            if (cell.backend == f.backend &&
                cell.workload == f.workload && cell.cores == f.cores) {
                EXPECT_EQ(cell.scale.seed, f.scale.seed);
                matched = true;
            }
        }
        EXPECT_TRUE(matched);
    }
}

TEST(SweepGrid, ChanGridSweepsChannelCounts)
{
    // 4 channel counts x 7 microbenchmarks x 3 designs.
    const auto cells = buildFigureGrid("chan");
    EXPECT_EQ(cells.size(), 4u * 7u * 3u);
    std::set<unsigned> channels;
    for (const SweepCell &cell : cells) {
        channels.insert(cell.nvramChannels);
        EXPECT_EQ(cell.config().nvramChannels, cell.nvramChannels);
    }
    EXPECT_EQ(channels, (std::set<unsigned>{1, 2, 4, 8}));
    // A count off the grid reaches the config the same way.
    SweepCell wide = cells.front();
    wide.nvramChannels = 16;
    EXPECT_EQ(wide.config().nvramChannels, 16u);
    EXPECT_NE(wide.label().find("/ch16"), std::string::npos);
}

TEST(SweepGrid, AxisGridsPinOneSeedPerWorkloadAndBackend)
{
    // Every axis point replays the identical operation stream: the cells
    // of a grid that differ only in axis values (channels, cores, loads,
    // coherence, machines, fraction, fault rate, replication) share a
    // seed.  The cluster grids pin to the scale grid's plane, so their
    // seeds are the scale grid's.
    using Key = std::pair<BackendKind, WorkloadKind>;
    std::map<std::string, std::map<Key, std::uint64_t>> seeds;
    for (const char *figure : {"scale", "chan", "scale64", "scale256",
                               "queue", "shard", "fault"}) {
        for (const SweepCell &cell : buildFigureGrid(figure)) {
            const auto [it, fresh] = seeds[figure].emplace(
                Key{cell.backend, cell.workload}, cell.scale.seed);
            EXPECT_EQ(it->second, cell.scale.seed) << cell.label();
        }
    }
    for (const char *figure : {"shard", "fault"}) {
        for (const auto &[key, seed] : seeds[figure])
            EXPECT_EQ(seed, seeds["scale"].at(key)) << figure;
    }
}

TEST(SweepRunner, ChanGridIsBitIdenticalForAnyJobCount)
{
    // The determinism guarantee must hold across the channel dimension:
    // N-channel results may not depend on sweep worker scheduling.
    const auto cells = gridCells(
        "chan", [](const SweepCell &c) { return c.nvramChannels <= 4; },
        tinyOptions());
    ASSERT_EQ(cells.size(), 3u * 2u * 2u);

    const auto serial = runSweep(cells, 1);
    const auto parallel = runSweep(cells, 8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(serial[i].ok) << serial[i].error;
        ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
        expectSameMetrics(serial[i].run, parallel[i].run);
    }
    EXPECT_EQ(sweepReport("chan", serial).dump(2),
              sweepReport("chan", parallel).dump(2));
}

TEST(SweepReport, ChanCellsCarryChannelCoordinates)
{
    const auto cells = gridCells(
        "chan", [](const SweepCell &c) { return c.nvramChannels == 2; },
        tinyOptions());
    ASSERT_EQ(cells.size(), 2u * 2u);
    const auto results = runSweep(cells, 2);
    const Json parsed = Json::parse(sweepReport("chan", results).dump(2));
    ASSERT_EQ(parsed["cells"].size(), results.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(parsed["cells"].at(i)["nvram_channels"].asUint(), 2u);
}

TEST(SweepRunner, ParallelRunIsBitIdenticalToSerial)
{
    const auto cells = buildFigureGrid("fig5", tinyOptions());
    ASSERT_EQ(cells.size(), 2u * 2u * 2u);

    const auto serial = runSweep(cells, 1);
    const auto parallel = runSweep(cells, 8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(serial[i].ok) << serial[i].error;
        ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
        expectSameMetrics(serial[i].run, parallel[i].run);
    }

    // The strongest form of the guarantee: the emitted JSON documents
    // are byte-identical.
    EXPECT_EQ(sweepReport("fig5", serial).dump(2),
              sweepReport("fig5", parallel).dump(2));
}

TEST(SweepRunner, FailingCellIsCapturedNotFatal)
{
    SweepCell cell;
    cell.figure = "fig5";
    cell.backend = BackendKind::Ssp;
    cell.workload = WorkloadKind::Sps;
    cell.base = ssp::test::smallConfig();
    cell.txs = 10;
    // An SPS array far larger than the 2 MiB heap: setup must fail.
    cell.scale.spsElements = std::uint64_t{1} << 24;
    const auto results = runSweep({cell}, 2);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_FALSE(results[0].error.empty());
}

TEST(SweepRunner, VerifyImageFailsOnAStoreTheReferenceModelMissed)
{
    // The check every cell runs on each machine after its run; the
    // runner turns its throw into a !ok cell with the text.  A stray
    // committed store that the SPS reference model never saw must fail
    // it, naming the check and the machine.
    WorkloadScale scale;
    scale.spsElements = 64;
    Experiment exp = buildExperiment(BackendKind::Ssp, WorkloadKind::Sps,
                                     smallConfig(), scale);
    runExperiment(exp, 50, 1);
    EXPECT_NO_THROW(verifyImage(*exp.workload, "shard 1"));

    // SPS allocates its array first, at the start of the heap (page 1).
    const Addr first = kPageSize;
    txWrite64(*exp.backend, 0, first, raw64(*exp.backend, first) + 1);
    try {
        verifyImage(*exp.workload, "shard 1");
        ADD_FAILURE() << "a corrupted image passed verifyImage";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("shard 1 failed Workload::verify()"),
                  std::string::npos)
            << what;
    }
}

TEST(MetricList, NamesAreUniqueAndCountersFillCounts)
{
    // A duplicate name would silently overwrite its twin in the same
    // report object.  A counter row's delta lands in a count member.
    std::set<std::string> names;
    for (const Metric &metric : metricList()) {
        EXPECT_TRUE(names.insert(metric.name).second) << metric.name;
        if (metric.counter != nullptr) {
            EXPECT_TRUE(std::holds_alternative<std::uint64_t RunResult::*>(
                metric.source))
                << metric.name;
        }
    }
    EXPECT_EQ(names.size(), metricList().size());
}

TEST(SweepReport, JsonRoundTripsThroughputWritesAndLatency)
{
    const auto cells = buildFigureGrid("fig5", tinyOptions());
    const auto results = runSweep(cells, 2);

    const Json report = sweepReport("fig5", results);
    const Json parsed = Json::parse(report.dump(2));

    EXPECT_EQ(parsed["schema"].asString(), "ssp-bench-report-v2");
    EXPECT_EQ(parsed["figure"].asString(), "fig5");
    ASSERT_EQ(parsed["cells"].size(), results.size());

    for (std::size_t i = 0; i < results.size(); ++i) {
        const Json &c = parsed["cells"].at(i);
        const CellResult &r = results[i];
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(c["backend"].asString(),
                  backendKindName(r.cell.backend));
        EXPECT_EQ(c["workload"].asString(),
                  workloadKindName(r.cell.workload));
        EXPECT_EQ(c["cores"].asUint(), r.cell.cores);
        char seed_hex[32];
        std::snprintf(seed_hex, sizeof(seed_hex), "0x%016llx",
                      static_cast<unsigned long long>(r.cell.scale.seed));
        EXPECT_EQ(c["seed"].asString(), seed_hex);

        const Json &m = c["metrics"];
        // Throughput, NVRAM-write and latency fields must round-trip
        // exactly (shortest-round-trip double formatting).
        EXPECT_EQ(m["tps"].asDouble(), r.run.tps());
        EXPECT_EQ(m["committed_txs"].asUint(), r.run.committedTxs);
        EXPECT_EQ(m["nvram_writes"].asUint(), r.run.nvramWrites);
        EXPECT_EQ(m["logging_writes"].asUint(), r.run.loggingWrites);
        EXPECT_EQ(m["cycles"].asUint(), r.run.cycles);
        EXPECT_EQ(m["avg_cycles_per_tx"].asDouble(),
                  static_cast<double>(r.run.cycles) /
                      static_cast<double>(r.run.committedTxs));
        EXPECT_EQ(m["avg_lines_per_tx"].asDouble(), r.run.avgLinesPerTx);
    }
}

TEST(SweepReport, JsonParserHandlesEscapesAndNesting)
{
    const Json j = Json::parse(
        "{\"a\": [1, 2.5, -3e2, true, false, null],"
        " \"s\": \"line\\nbreak \\\"q\\\" \\u0041\","
        " \"nested\": {\"empty_arr\": [], \"empty_obj\": {}}}");
    EXPECT_EQ(j["a"].size(), 6u);
    EXPECT_EQ(j["a"].at(0).asUint(), 1u);
    EXPECT_EQ(j["a"].at(1).asDouble(), 2.5);
    EXPECT_EQ(j["a"].at(2).asDouble(), -300.0);
    EXPECT_TRUE(j["a"].at(3).asBool());
    EXPECT_FALSE(j["a"].at(4).asBool());
    EXPECT_TRUE(j["a"].at(5).isNull());
    EXPECT_EQ(j["s"].asString(), "line\nbreak \"q\" A");
    EXPECT_EQ(j["nested"]["empty_arr"].size(), 0u);
    EXPECT_EQ(j["nested"]["empty_obj"].size(), 0u);

    // dump -> parse -> dump is the identity.
    EXPECT_EQ(Json::parse(j.dump()).dump(), j.dump());
    EXPECT_EQ(Json::parse(j.dump(2)).dump(2), j.dump(2));

    EXPECT_THROW(Json::parse("{\"unterminated\": "), std::runtime_error);
    EXPECT_THROW(Json::parse("[1,] trailing"), std::runtime_error);
    EXPECT_THROW(Json::parse("nope"), std::runtime_error);
    // strtod-isms that are not JSON must fail as parse errors too.
    EXPECT_THROW(Json::parse("[1e999]"), std::runtime_error);
    EXPECT_THROW(Json::parse("[inf]"), std::runtime_error);
    EXPECT_THROW(Json::parse("[nan]"), std::runtime_error);
    EXPECT_THROW(Json::parse("[+1]"), std::runtime_error);
    EXPECT_THROW(Json::parse("[0x10]"), std::runtime_error);
}

TEST(SweepReport, NumberFormattingIsAShortestRoundTripFixedPoint)
{
    // emit -> parse -> emit must be the identity for any double, and
    // integers must keep their plain form (no ".0", no exponent) so
    // checked-in reports stay byte-stable.
    const std::vector<double> tricky = {
        0.0,       0.1,     0.3,           1.0 / 3.0,
        2.5e-7,    1e-9,    12345.6789,    0.30000000000000004,
        1e20,      -42.125, 9007199254740992.0,
        5096.887692307692, // a real tps value from BENCH_smoke.json
    };
    for (double v : tricky) {
        const std::string s = jsonNumberToString(v);
        const double parsed = Json::parse("[" + s + "]").at(0).asDouble();
        EXPECT_EQ(parsed, v) << s;
        EXPECT_EQ(jsonNumberToString(parsed), s) << s;
    }
    EXPECT_EQ(jsonNumberToString(4000.0), "4000");
    EXPECT_EQ(jsonNumberToString(0.0), "0");
    EXPECT_EQ(jsonNumberToString(-1.0), "-1");
    EXPECT_EQ(jsonNumberToString(0.5), "0.5");
}

TEST(SweepCli, JobsValueRejectsInvalidInput)
{
    // ssp_fatal throws std::runtime_error; sweep_main turns it into
    // exit code 2 with the flag named in the message.
    EXPECT_THROW(parseCount("--jobs", "0", 1024), std::runtime_error);
    EXPECT_THROW(parseCount("--jobs", "1025", 1024), std::runtime_error);
    EXPECT_THROW(parseCount("--jobs", "4x", 1024), std::runtime_error);
    EXPECT_THROW(parseCount("--jobs", "", 1024), std::runtime_error);
    EXPECT_THROW(parseCount("--jobs", "-1", 1024), std::runtime_error);
    EXPECT_THROW(parseCount("--jobs", "abc", 1024), std::runtime_error);
    EXPECT_THROW(parseCount("--jobs", " 4", 1024), std::runtime_error);
    EXPECT_THROW(parseCount("--jobs", "+4", 1024), std::runtime_error);
    EXPECT_THROW(parseCount("--jobs", "-18446744073709551615", 1024),
                 std::runtime_error); // stoull would wrap this to 1
    EXPECT_THROW(parseCount("--txs", "99999999999999999999999", 1024),
                 std::runtime_error);
    try {
        parseCount("--jobs", "4x", 1024);
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("--jobs"), std::string::npos);
    }
    EXPECT_EQ(parseCount("--jobs", "1", 1024), 1u);
    EXPECT_EQ(parseCount("--jobs", "1024", 1024), 1024u);
    EXPECT_EQ(parseCount("--txs", "4000", 1'000'000'000), 4000u);
}

TEST(SweepCli, SeedValueRejectsInvalidInput)
{
    // Digits only, like --jobs, but 0 is a valid seed: a bare stoull
    // ran "4x" as seed 4 and wrapped "-1" to 2^64-1.
    for (const char *bad : {"4x", "-1", "abc", "", " 4", "+4", "0x10",
                            "18446744073709551616"}) {
        try {
            parseSeed(bad);
            ADD_FAILURE() << "--seed '" << bad << "' was accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("--seed"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(parseSeed("0"), 0u);
    EXPECT_EQ(parseSeed("42"), 42u);
    EXPECT_EQ(parseSeed("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
}

// ---- replays of the paper grids -------------------------------------------

TEST(SweepReplay, Fig5SpsCellsMatchCheckedInReport)
{
    // The paper's own Figure 5 cells: every design at 1 and 4 cores.
    SweepGridOptions opts;
    opts.workloads = {WorkloadKind::Sps};
    const auto cells = buildFigureGrid("fig5", opts);
    ASSERT_EQ(cells.size(), 6u);
    expectReplaysCheckedIn("fig5", cells);
}

TEST(SweepReplay, ChanSpsCellsMatchCheckedInReport)
{
    // Every design at 1, 2, 4 and 8 page-interleaved NVRAM channels.
    SweepGridOptions opts;
    opts.workloads = {WorkloadKind::Sps};
    const auto cells = buildFigureGrid("chan", opts);
    ASSERT_EQ(cells.size(), 12u);
    expectReplaysCheckedIn("chan", cells);
}

// ---- scale64 grid ---------------------------------------------------------

TEST(SweepGrid, Scale64GridCoversTheBigMachineTo64Cores)
{
    const auto cells = buildFigureGrid("scale64");
    // 7 core counts x 6 workloads x 3 backends.
    ASSERT_EQ(cells.size(), 126u);
    std::set<unsigned> cores;
    for (const auto &cell : cells) {
        cores.insert(cell.cores);
        EXPECT_EQ(cell.figure, "scale64");
        // The big machine: SSP cache and journal sized for 64 cores,
        // identical at every core count so the axis measures cores.
        EXPECT_EQ(cell.base.sspCacheSlots, 8192u);
        EXPECT_GE(cell.base.caches.l3.sizeBytes, 64u * 1024 * 1024);
        EXPECT_EQ(cell.txs, 2000u);
    }
    EXPECT_EQ(cores, (std::set<unsigned>{1, 2, 4, 8, 16, 32, 64}));
}

TEST(SweepReport, Scale64OneCoreCellsReportOneBusyCoreAndNoConflicts)
{
    SweepGridOptions opts;
    opts.workloads = {WorkloadKind::Sps};
    opts.txs = 20;
    const auto cells = gridCells(
        "scale64", [](const SweepCell &c) { return c.cores == 1; }, opts);
    ASSERT_EQ(cells.size(), 3u);
    const auto results = runSweep(cells, 1);
    const Json report = sweepReport("scale64", results);
    for (std::size_t i = 0; i < report["cells"].size(); ++i) {
        const Json &m = report["cells"].at(i)["metrics"];
        // One core is busy for the whole run, alone, and never
        // conflicts.
        ASSERT_EQ(m["core_busy_cycles"].size(), 1u);
        EXPECT_EQ(m["core_busy_cycles"].at(0).asUint(),
                  m["cycles"].asUint());
        ASSERT_EQ(m["core_txs"].size(), 1u);
        EXPECT_EQ(m["core_txs"].at(0).asUint(), 20u);
        EXPECT_EQ(m["imbalance"].asDouble(), 1.0);
        EXPECT_EQ(m["tx_aborts"].asUint(), 0u);
        EXPECT_EQ(m["tx_retries"].asUint(), 0u);
    }
}

TEST(SweepReplay, Scale64HashZipfC16CellsMatchCheckedInReport)
{
    SweepGridOptions opts;
    opts.workloads = {WorkloadKind::HashZipf};
    const auto cells = gridCells(
        "scale64", [](const SweepCell &c) { return c.cores == 16; }, opts);
    ASSERT_EQ(cells.size(), 3u);
    expectReplaysCheckedIn("scale64", cells);
}

// ---- queue grid ------------------------------------------------------------

TEST(SweepGrid, QueueGridCoversLoadsCoresAndSharingScenarios)
{
    const auto cells = buildFigureGrid("queue");
    // 2 core counts x 4 loads x 3 workloads x 3 backends.
    ASSERT_EQ(cells.size(), 2u * 4u * 3u * 3u);
    std::set<unsigned> cores;
    std::set<std::string> labels;
    for (const SweepCell &cell : cells) {
        cores.insert(cell.cores);
        EXPECT_GT(cell.offeredLoad, 0.0);
        EXPECT_EQ(cell.arrival, serve::ArrivalKind::Poisson);
        EXPECT_EQ(cell.txs, 2000u);
        // Big machine at every cell, like scale64.
        EXPECT_EQ(cell.base.sspCacheSlots, 8192u);
        // Partitioned scenario: Hash-Rand shards its keys per core.
        if (cell.workload == WorkloadKind::HashRand)
            EXPECT_EQ(cell.keyShards, cell.cores);
        else
            EXPECT_EQ(cell.keyShards, 1u);
        labels.insert(cell.label());
    }
    EXPECT_EQ(cores, (std::set<unsigned>{4, 16}));
    // Labels carry the open-loop coordinates and stay unique.
    EXPECT_EQ(labels.size(), cells.size());
    EXPECT_TRUE(labels.count("queue/SSP/SPS/c4/poisson/load30"));
    EXPECT_TRUE(labels.count("queue/REDO-LOG/Hash-Rand/c16/p16/"
                             "poisson/load120"));
}

TEST(SweepReport, QueueCellsCarryTailLatencyMetricsAndCoordinates)
{
    SweepGridOptions opts;
    opts.workloads = {WorkloadKind::Sps};
    opts.backends = {BackendKind::Ssp};
    opts.txs = 120;
    const auto cells = gridCells("queue", [](const SweepCell &c) {
        return c.cores == 4 && c.offeredLoad == 1.2;
    }, opts);
    ASSERT_EQ(cells.size(), 1u);
    const auto results = runSweep(cells, 1);
    ASSERT_TRUE(results[0].ok) << results[0].error;
    const Json report =
        Json::parse(sweepReport("queue", results).dump(2));
    const Json &c = report["cells"].at(0);
    EXPECT_EQ(c["arrival"].asString(), "poisson");
    const Json &m = c["metrics"];
    EXPECT_EQ(m["offered_load"].asDouble(), 1.2);
    EXPECT_GT(m["p50_cycles"].asUint(), 0u);
    EXPECT_GE(m["p99_cycles"].asUint(), m["p50_cycles"].asUint());
    // Every request is accounted for: acked + shed == generated.
    EXPECT_EQ(m["committed_txs"].asUint() + m["rejected_txs"].asUint(),
              120u);

    // A closed-loop cell has no queue: nothing waits or is shed.
    const auto smoke_cells = buildFigureGrid("smoke");
    const auto smoke = runSweep(smoke_cells, 1);
    const Json smoke_report =
        Json::parse(sweepReport("smoke", smoke).dump(2));
    const Json &closed = smoke_report["cells"].at(0)["metrics"];
    for (const char *f : {"p50_cycles", "p99_cycles", "p999_cycles",
                          "rejected_txs"})
        EXPECT_EQ(closed[f].asUint(), 0u) << f;
    EXPECT_EQ(closed["mean_queue_depth"].asDouble(), 0.0);
    EXPECT_EQ(closed["offered_load"].asDouble(), 0.0);
}

TEST(SweepReplay, QueueSpsC4Load60CellsMatchCheckedInReport)
{
    SweepGridOptions opts;
    opts.workloads = {WorkloadKind::Sps};
    const auto cells = gridCells("queue", [](const SweepCell &c) {
        return c.cores == 4 && c.offeredLoad == 0.6;
    }, opts);
    ASSERT_EQ(cells.size(), 3u);
    expectReplaysCheckedIn("queue", cells);
}

// ---- scale256 grid --------------------------------------------------------

TEST(SweepGrid, Scale256PairsBroadcastAndDirectoryAtEveryCoreCount)
{
    const auto cells = buildFigureGrid("scale256");
    // 6 core counts x 2 coherence models x 3 workloads x 3 backends.
    ASSERT_EQ(cells.size(), 6u * 2u * 3u * 3u);
    std::set<unsigned> cores;
    std::set<std::string> labels;
    std::size_t directory_cells = 0;
    for (const SweepCell &cell : cells) {
        cores.insert(cell.cores);
        EXPECT_EQ(cell.figure, "scale256");
        EXPECT_EQ(cell.txs, 1000u);
        // The mesh machine: provisioned for 256 cores at every cell so
        // the axes measure cores and interconnect, not capacity.
        EXPECT_EQ(cell.base.sspCacheSlots, 16384u);
        EXPECT_GE(cell.base.caches.l3.sizeBytes, 96u * 1024 * 1024);
        if (cell.coherenceMode == CoherenceMode::Directory)
            ++directory_cells;
        // Partitioned scenario: Hash-Rand shards its keys per core.
        if (cell.workload == WorkloadKind::HashRand && cell.cores > 1) {
            EXPECT_EQ(cell.keyShards, cell.cores);
        }
        labels.insert(cell.label());
    }
    EXPECT_EQ(cores, (std::set<unsigned>{1, 4, 16, 64, 128, 256}));
    EXPECT_EQ(directory_cells, cells.size() / 2);
    // The coherence model is a label coordinate, so labels stay unique.
    EXPECT_EQ(labels.size(), cells.size());
}

TEST(SweepReport, Scale256DirectoryCountersAreZeroUnderBroadcast)
{
    SweepGridOptions opts;
    opts.workloads = {WorkloadKind::Sps};
    opts.txs = 20;
    const auto cells = gridCells(
        "scale256", [](const SweepCell &c) { return c.cores == 1; }, opts);
    ASSERT_EQ(cells.size(), 6u); // 2 modes x 3 backends
    const auto results = runSweep(cells, 1);
    const Json report =
        Json::parse(sweepReport("scale256", results).dump(2));
    for (std::size_t i = 0; i < report["cells"].size(); ++i) {
        const Json &c = report["cells"].at(i);
        const std::string label = c["label"].asString();
        ASSERT_TRUE(c["ok"].asBool()) << label;
        const Json &m = c["metrics"];
        // The broadcast bus has no directory, mesh or snoop filter.
        if (c["coherence"].asString() == "directory")
            continue;
        for (const char *f : {"directory_lookups", "hop_traversal_cycles",
                              "snoop_filter_evictions",
                              "back_invalidations"})
            EXPECT_EQ(m[f].asUint(), 0u) << label << " " << f;
    }
}

TEST(SweepReplay, Scale256DirectoryCellsMatchCheckedInReport)
{
    // Directory-mode Hash-Rand, every design: on one core the snoop
    // filter overflows and back-invalidates (drained after fills, while
    // L1 hits skip the drain), and at 128 cores every store hit pays a
    // directory transaction on the mesh.
    SweepGridOptions opts;
    opts.workloads = {WorkloadKind::HashRand};
    const auto cells = gridCells("scale256", [](const SweepCell &c) {
        return (c.cores == 1 || c.cores == 128) &&
               c.coherenceMode == CoherenceMode::Directory;
    }, opts);
    ASSERT_EQ(cells.size(), 6u);
    expectReplaysCheckedIn("scale256", cells);
}

TEST(SweepRunner, Scale256CellsAreDeterministicAcrossJobs)
{
    SweepGridOptions opts;
    opts.workloads = {WorkloadKind::Sps};
    opts.backends = {BackendKind::Ssp};
    opts.txs = 40;
    const auto cells = gridCells(
        "scale256", [](const SweepCell &c) { return c.cores <= 4; }, opts);
    ASSERT_EQ(cells.size(), 4u); // 2 core counts x 2 modes
    const auto serial = runSweep(cells, 1);
    const auto parallel = runSweep(cells, 3);
    const Json a = sweepReport("scale256", serial);
    const Json b = sweepReport("scale256", parallel);
    EXPECT_EQ(a.dump(2), b.dump(2));
}

// ---- paper tables ----------------------------------------------------------

/** The fields of row @p name in the table under banner @p title
 *  ("Figure 5a"); empty if there is no such row. */
std::vector<std::string>
tableRow(const std::string &text, const std::string &title,
         const std::string &name)
{
    const std::size_t at = text.find("= " + title + ":");
    if (at == std::string::npos)
        return {};
    std::istringstream in(text.substr(at + 1));
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("= ", 0) == 0)
            break; // the next table
        std::istringstream words(line);
        std::vector<std::string> fields{
            std::istream_iterator<std::string>(words), {}};
        if (!fields.empty() && fields[0] == name)
            return fields;
    }
    return {};
}

/** Every field of the row is present: a value, not "-". */
void
expectComplete(const std::vector<std::string> &fields)
{
    EXPECT_FALSE(fields.empty());
    for (const std::string &f : fields)
        EXPECT_NE(f, "-");
}

TEST(FigureTables, Fig5ReportRendersFigs5To7)
{
    const Json report = ssp::test::loadCheckedIn("BENCH_fig5.json");
    const std::string text = renderPaperTables(report);
    for (const char *title : {"Figure 5a", "Figure 5b", "Figure 6",
                              "Figure 7a", "Figure 7b"}) {
        for (WorkloadKind w : microbenchmarks()) {
            SCOPED_TRACE(std::string(title) + " " + workloadKindName(w));
            expectComplete(tableRow(text, title, workloadKindName(w)));
        }
    }
    EXPECT_EQ(text.find("nan"), std::string::npos);
    EXPECT_EQ(text.find("inf"), std::string::npos);

    // The geomeans equal the ones computed straight from the metrics.
    std::map<std::string, double> tps;
    for (std::size_t i = 0; i < report["cells"].size(); ++i) {
        const Json &c = report["cells"].at(i);
        tps[c["label"].asString()] = c["metrics"]["tps"].asDouble();
    }
    for (const auto &[title, cores] : {std::pair{"Figure 5a", "/c1"},
                                       std::pair{"Figure 5b", "/c4"}}) {
        double vs_undo = 1, vs_redo = 1;
        for (WorkloadKind w : microbenchmarks()) {
            auto at = [&](const char *backend) {
                return tps.at(std::string("fig5/") + backend + "/" +
                              workloadKindName(w) + cores);
            };
            vs_undo *= at("SSP") / at("UNDO-LOG");
            vs_redo *= at("SSP") / at("REDO-LOG");
        }
        const auto geomean = tableRow(text, title, "geomean");
        ASSERT_EQ(geomean.size(), 6u) << title;
        EXPECT_EQ(geomean[4], fmtDouble(std::pow(vs_undo, 1.0 / 7)));
        EXPECT_EQ(geomean[5], fmtDouble(std::pow(vs_redo, 1.0 / 7)));
    }
    EXPECT_NE(text.find("paper reference: Fig 5b"), std::string::npos);
}

TEST(FigureTables, SmallRunsRenderEveryRow)
{
    SweepGridOptions opts;
    opts.txs = 40;
    opts.scale.keySpace = 256;
    opts.scale.spsElements = 1024;
    // Per figure: the one workload run, and the rows (table, row label)
    // it must print.
    using Rows = std::vector<std::pair<const char *, const char *>>;
    const std::vector<std::tuple<const char *, WorkloadKind, Rows>> cases =
        {{"fig8", WorkloadKind::BTreeRand,
          {{"Figure 8b", "x1"}, {"Figure 8b", "x5"}, {"Figure 8b", "x9"}}},
         {"fig9", WorkloadKind::Sps,
          {{"Figure 9", "20"}, {"Figure 9", "100"}, {"Figure 9", "180"}}},
         {"table3", WorkloadKind::Vacation, {{"Table 3", "Vacation"}}},
         {"table45", WorkloadKind::Memcached,
          {{"Table 4", "Memcached"}, {"Table 5", "Memcached"}}}};
    for (const auto &[figure, workload, rows] : cases) {
        opts.workloads = {workload};
        const auto results = runSweep(buildFigureGrid(figure, opts), 4);
        const std::string text =
            renderPaperTables(sweepReport(figure, results));
        for (const auto &[title, name] : rows) {
            SCOPED_TRACE(std::string(title) + " " + name);
            expectComplete(tableRow(text, title, name));
        }
        EXPECT_EQ(text.find("nan"), std::string::npos) << figure;
        EXPECT_EQ(text.find("inf"), std::string::npos) << figure;
    }
}

TEST(FigureTables, FilteredReportPrintsDashesForMissingBaselines)
{
    // A --backends ssp run of fig5: every comparison with UNDO-LOG or
    // REDO-LOG is missing, never a division by zero.
    const Json full = ssp::test::loadCheckedIn("BENCH_fig5.json");
    Json cells = Json::array();
    for (std::size_t i = 0; i < full["cells"].size(); ++i) {
        if (full["cells"].at(i)["backend"].asString() == "SSP")
            cells.push(full["cells"].at(i));
    }
    Json report = Json::object();
    report.set("figure", Json::str("fig5"));
    report.set("cells", std::move(cells));
    const std::string text = renderPaperTables(report);
    auto dashes = [](const char *name) {
        std::vector<std::string> fields(6, "-");
        fields[0] = name;
        return fields;
    };
    EXPECT_EQ(tableRow(text, "Figure 5a", "SPS"), dashes("SPS"));
    EXPECT_EQ(tableRow(text, "Figure 5a", "geomean"), dashes("geomean"));
    EXPECT_EQ(tableRow(text, "Figure 6", "SPS"), dashes("SPS"));
    EXPECT_EQ(tableRow(text, "Figure 7a", "average"), dashes("average"));
    // SSP's own write breakdown needs no baseline.
    expectComplete(tableRow(text, "Figure 7b", "SPS"));
    EXPECT_EQ(text.find("nan"), std::string::npos);
    EXPECT_EQ(text.find("inf"), std::string::npos);
}

} // namespace
} // namespace ssp::sweep::test
