/**
 * @file
 * Sweep subsystem tests: grid construction, determinism of the parallel
 * runner (identical results for any worker count), JSON round-trip of
 * the emitted BENCH_*.json report, replays of checked-in grid cells,
 * and the sweep CLI's value parsers.
 */

#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>
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

void
expectSameRun(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.backend, b.backend);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.committedTxs, b.committedTxs);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.nvramWrites, b.nvramWrites);
    EXPECT_EQ(a.loggingWrites, b.loggingWrites);
    EXPECT_EQ(a.dataWrites, b.dataWrites);
    EXPECT_EQ(a.consolidationWrites, b.consolidationWrites);
    EXPECT_EQ(a.checkpointWrites, b.checkpointWrites);
    EXPECT_EQ(a.journalWrites, b.journalWrites);
    EXPECT_EQ(a.avgLinesPerTx, b.avgLinesPerTx);
    EXPECT_EQ(a.avgPagesPerTx, b.avgPagesPerTx);
    EXPECT_EQ(a.maxPagesPerTx, b.maxPagesPerTx);
}

/**
 * Rerun @p cells of @p figure and require every cell entry of the
 * report to equal, byte for byte, the same-label entry of the
 * checked-in BENCH_<figure>.json.
 */
void
expectReplaysCheckedIn(const std::string &figure,
                       const std::vector<SweepCell> &cells)
{
    const Json checked_in =
        ssp::test::loadCheckedIn("BENCH_" + figure + ".json");
    const auto results = runSweep(cells, 1);
    ASSERT_EQ(results.size(), cells.size());
    const Json report = sweepReport(figure, results);
    std::size_t matched = 0;
    for (std::size_t i = 0; i < report["cells"].size(); ++i) {
        const Json &got = report["cells"].at(i);
        ASSERT_TRUE(got["ok"].asBool()) << results[i].error;
        for (std::size_t j = 0; j < checked_in["cells"].size(); ++j) {
            const Json &want = checked_in["cells"].at(j);
            if (want["label"].asString() != got["label"].asString())
                continue;
            EXPECT_EQ(got.dump(2), want.dump(2));
            ++matched;
        }
    }
    EXPECT_EQ(matched, cells.size());
}

/** As above, for the @p opts subset of @p figure. */
void
expectReplaysCheckedIn(const std::string &figure,
                       const SweepGridOptions &opts, std::size_t want_cells)
{
    const auto cells = buildFigureGrid(figure, opts);
    ASSERT_EQ(cells.size(), want_cells);
    expectReplaysCheckedIn(figure, cells);
}

TEST(SweepGrid, KnownFiguresBuildNonEmptyGrids)
{
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

TEST(SweepGrid, FigureShapesMatchTheBenches)
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
    for (const SweepCell &cell : buildFigureGrid("fig6", opts)) {
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
    // Default: 4 channel counts x 7 microbenchmarks x 3 designs.
    EXPECT_EQ(buildFigureGrid("chan").size(), 4u * 7u * 3u);

    SweepGridOptions opts;
    opts.channels = {1, 16};
    const auto cells = buildFigureGrid("chan", opts);
    EXPECT_EQ(cells.size(), 2u * 7u * 3u);
    for (const SweepCell &cell : cells) {
        EXPECT_TRUE(cell.nvramChannels == 1 || cell.nvramChannels == 16);
        const SspConfig cfg = cell.config();
        EXPECT_EQ(cfg.nvramChannels, cell.nvramChannels);
        EXPECT_EQ(cfg.interleaveGranularity, InterleaveGranularity::Page);
    }
}

TEST(SweepGrid, ChanGridSharesSeedsAcrossChannelCounts)
{
    // Cells differing only in channel count must replay the identical
    // operation stream, so channel scaling is measured on the same work.
    const auto cells = buildFigureGrid("chan");
    for (const SweepCell &a : cells) {
        for (const SweepCell &b : cells) {
            if (a.backend == b.backend && a.workload == b.workload) {
                EXPECT_EQ(a.scale.seed, b.scale.seed);
            }
        }
    }
}

TEST(SweepGrid, DevicePresetAppliesToEveryCell)
{
    SweepGridOptions opts = tinyOptions();
    opts.nvramDevice = NvramDevice::SttMramFast;
    const auto cells = buildFigureGrid("fig5", opts);
    ASSERT_FALSE(cells.empty());
    const MemTimingParams preset =
        nvramDevicePreset(NvramDevice::SttMramFast);
    for (const SweepCell &cell : cells) {
        const SspConfig cfg = cell.config();
        EXPECT_EQ(cfg.nvram.name, preset.name);
        EXPECT_EQ(cfg.nvram.writeLatency, preset.writeLatency);
        EXPECT_NE(cell.label().find("stt-mram"), std::string::npos);
    }
}

TEST(SweepRunner, ChanGridIsBitIdenticalForAnyJobCount)
{
    // The determinism guarantee must hold across the channel dimension:
    // N-channel results may not depend on sweep worker scheduling.
    SweepGridOptions opts = tinyOptions();
    opts.channels = {1, 2, 4};
    const auto cells = buildFigureGrid("chan", opts);
    ASSERT_EQ(cells.size(), 3u * 2u * 2u);

    const auto serial = runSweep(cells, 1);
    const auto parallel = runSweep(cells, 8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(serial[i].ok) << serial[i].error;
        ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
        expectSameRun(serial[i].run, parallel[i].run);
    }
    EXPECT_EQ(sweepReport("chan", serial).dump(2),
              sweepReport("chan", parallel).dump(2));
}

TEST(SweepReport, ChanCellsCarryChannelCoordinates)
{
    SweepGridOptions opts = tinyOptions();
    opts.channels = {2};
    const auto cells = buildFigureGrid("chan", opts);
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
        expectSameRun(serial[i].run, parallel[i].run);
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

TEST(SweepReport, JsonRoundTripsThroughputWritesAndLatency)
{
    const auto cells = buildFigureGrid("fig5", tinyOptions());
    const auto results = runSweep(cells, 2);

    const Json report = sweepReport("fig5", results);
    const Json parsed = Json::parse(report.dump(2));

    EXPECT_EQ(parsed["schema"].asString(), "ssp-bench-report-v1");
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

TEST(SweepCli, CountListParsesValidInput)
{
    EXPECT_EQ(parseCountList("--cores", "1,2,4,8"),
              (std::vector<unsigned>{1, 2, 4, 8}));
    EXPECT_EQ(parseCountList("--channels", "64"),
              (std::vector<unsigned>{64}));
}

TEST(SweepCli, EmptyOrInvalidCountListIsFatalNotASilentDefault)
{
    // An empty list must never fall back to the grid default: the
    // sweep CLI exits non-zero instead of "succeeding" on a grid the
    // caller did not ask for.
    EXPECT_THROW(parseCountList("--cores", ""), std::runtime_error);
    EXPECT_THROW(parseCountList("--cores", ",,,"), std::runtime_error);
    EXPECT_THROW(parseCountList("--cores", "0"), std::runtime_error);
    EXPECT_THROW(parseCountList("--cores", "65"), std::runtime_error);
    EXPECT_THROW(parseCountList("--cores", "4x"), std::runtime_error);
    EXPECT_THROW(parseCountList("--channels", "two"),
                 std::runtime_error);
    EXPECT_THROW(parseCountList("--channels", "1,,x"),
                 std::runtime_error);
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

// ---- host wall-clock harness ---------------------------------------------

TEST(SweepReport, HostTimeIsOptInAndKeepsDefaultReportsByteStable)
{
    auto cells = buildFigureGrid("smoke");
    cells[0].txs = 20;
    const auto results = runSweep(cells, 1);
    ASSERT_TRUE(results[0].ok) << results[0].error;
    // The runner always measures; only the report opts in.
    EXPECT_GE(results[0].hostMillis, 0.0);

    const Json plain = sweepReport("smoke", results);
    EXPECT_FALSE(plain.has("host_ms_total"));
    EXPECT_FALSE(plain["cells"].at(0).has("host_ms"));

    const Json timed = sweepReport("smoke", results, true);
    ASSERT_TRUE(timed.has("host_ms_total"));
    ASSERT_TRUE(timed["cells"].at(0).has("host_ms"));
    EXPECT_GE(timed["cells"].at(0)["host_ms"].asDouble(), 0.0);
    EXPECT_GE(timed["host_ms_total"].asDouble(),
              timed["cells"].at(0)["host_ms"].asDouble());

    // Everything except the host-time fields is identical, so --time
    // cannot perturb the simulated metrics it annotates.
    EXPECT_EQ(plain["cells"].at(0)["metrics"].dump(2),
              timed["cells"].at(0)["metrics"].dump(2));
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

TEST(SweepGrid, Scale64SeedsArePinnedPerWorkloadBackend)
{
    SweepGridOptions all;
    const auto full = buildFigureGrid("scale64", all);
    SweepGridOptions one;
    one.coreCounts = {64};
    const auto only64 = buildFigureGrid("scale64", one);
    ASSERT_EQ(only64.size(), 18u);
    // A 64-core cell replays the same stream whether or not the other
    // core counts were generated (the ordinal is pinned, not
    // positional).
    for (const auto &cell : only64) {
        bool found = false;
        for (const auto &ref : full) {
            if (ref.cores == 64 && ref.backend == cell.backend &&
                ref.workload == cell.workload) {
                EXPECT_EQ(ref.scale.seed, cell.scale.seed);
                found = true;
            }
        }
        EXPECT_TRUE(found);
    }
}

TEST(SweepReport, Scale64EmitsPerCoreCountersAtEveryCoreCount)
{
    SweepGridOptions opts;
    opts.coreCounts = {1};
    opts.workloads = {WorkloadKind::Sps};
    opts.txs = 20;
    auto cells = buildFigureGrid("scale64", opts);
    ASSERT_EQ(cells.size(), 3u);
    const auto results = runSweep(cells, 1);
    const Json report = sweepReport("scale64", results);
    for (std::size_t i = 0; i < report["cells"].size(); ++i) {
        const Json &m = report["cells"].at(i)["metrics"];
        // Unlike the older grids (whose single-core reports must stay
        // byte-identical to the 1-core model), scale64 keeps one
        // schema across the whole 1..64-core axis.
        EXPECT_TRUE(m.has("core_busy_cycles"));
        EXPECT_TRUE(m.has("coherence_flips"));
        EXPECT_TRUE(m.has("tx_aborts"));
    }
}

TEST(SweepReplay, Scale64HashZipfC16CellsMatchCheckedInReport)
{
    SweepGridOptions opts;
    opts.workloads = {WorkloadKind::HashZipf};
    opts.coreCounts = {16};
    expectReplaysCheckedIn("scale64", opts, 3);
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

TEST(SweepGrid, QueueSeedsArePinnedAcrossLoadsAndCores)
{
    // Cells differing only in offered load or core count replay the
    // identical key stream — the load axis measures queueing delay on
    // the same work.
    const auto cells = buildFigureGrid("queue");
    for (const SweepCell &a : cells) {
        for (const SweepCell &b : cells) {
            if (a.backend == b.backend && a.workload == b.workload) {
                EXPECT_EQ(a.scale.seed, b.scale.seed);
            }
        }
    }
}

TEST(SweepGrid, QueueOnlyOptionsAreRejectedElsewhere)
{
    SweepGridOptions opts;
    opts.loads = {0.5};
    EXPECT_THROW(buildFigureGrid("fig5", opts), std::runtime_error);
    EXPECT_THROW(buildFigureGrid("scale", opts), std::runtime_error);
    opts.loads.clear();
    opts.coreCounts = {4};
    EXPECT_NO_THROW(buildFigureGrid("queue", opts));
}

TEST(SweepCli, LoadListParsesValidInputAndRejectsGarbage)
{
    EXPECT_EQ(parseLoadList("--load", "0.3,0.6,1.2"),
              (std::vector<double>{0.3, 0.6, 1.2}));
    EXPECT_EQ(parseLoadList("--load", "2"), (std::vector<double>{2.0}));
    EXPECT_THROW(parseLoadList("--load", ""), std::runtime_error);
    EXPECT_THROW(parseLoadList("--load", "0"), std::runtime_error);
    EXPECT_THROW(parseLoadList("--load", "-0.5"), std::runtime_error);
    EXPECT_THROW(parseLoadList("--load", "0.6x"), std::runtime_error);
    EXPECT_THROW(parseLoadList("--load", "eleven"), std::runtime_error);
    EXPECT_THROW(parseLoadList("--load", "12"), std::runtime_error);
}

TEST(SweepReport, QueueCellsCarryTailLatencyMetricsAndCoordinates)
{
    SweepGridOptions opts;
    opts.coreCounts = {2};
    opts.loads = {1.0};
    opts.workloads = {WorkloadKind::Sps};
    opts.backends = {BackendKind::Ssp};
    opts.txs = 120;
    opts.arrival = serve::ArrivalKind::Bursty;
    const auto cells = buildFigureGrid("queue", opts);
    ASSERT_EQ(cells.size(), 1u);
    const auto results = runSweep(cells, 1);
    ASSERT_TRUE(results[0].ok) << results[0].error;
    const Json report =
        Json::parse(sweepReport("queue", results).dump(2));
    const Json &c = report["cells"].at(0);
    EXPECT_EQ(c["arrival"].asString(), "bursty");
    const Json &m = c["metrics"];
    EXPECT_TRUE(m.has("p50_cycles"));
    EXPECT_TRUE(m.has("p99_cycles"));
    EXPECT_TRUE(m.has("p999_cycles"));
    EXPECT_TRUE(m.has("mean_queue_depth"));
    EXPECT_TRUE(m.has("rejected_txs"));
    EXPECT_EQ(m["offered_load"].asDouble(), 1.0);
    EXPECT_GT(m["p50_cycles"].asUint(), 0u);
    EXPECT_GE(m["p99_cycles"].asUint(), m["p50_cycles"].asUint());
    // Every request is accounted for: acked + shed == generated.
    EXPECT_EQ(m["committed_txs"].asUint() + m["rejected_txs"].asUint(),
              120u);

    // Closed-loop reports must not grow the serve fields.
    const auto smoke_cells = buildFigureGrid("smoke");
    const auto smoke = runSweep(smoke_cells, 1);
    const Json smoke_report =
        Json::parse(sweepReport("smoke", smoke).dump(2));
    EXPECT_FALSE(smoke_report["cells"].at(0).has("arrival"));
    EXPECT_FALSE(
        smoke_report["cells"].at(0)["metrics"].has("p99_cycles"));
}

TEST(SweepReplay, QueueSpsC4Load60CellsMatchCheckedInReport)
{
    SweepGridOptions opts;
    opts.workloads = {WorkloadKind::Sps};
    opts.coreCounts = {4};
    opts.loads = {0.6};
    expectReplaysCheckedIn("queue", opts, 3);
}

// ---- scale256 grid --------------------------------------------------------

TEST(SweepCli, CountListHonorsTheCallerProvidedCeiling)
{
    // --cores parses up to kMaxCores (the per-figure machine ceiling is
    // buildFigureGrid's job); --channels keeps the historical 64.
    EXPECT_EQ(parseCountList("--cores", "128,256", kMaxCores),
              (std::vector<unsigned>{128, 256}));
    EXPECT_EQ(parseCountList("--cores", "65", kMaxCores),
              (std::vector<unsigned>{65}));
    EXPECT_THROW(parseCountList("--cores", "257", kMaxCores),
                 std::runtime_error);
}

TEST(SweepGrid, CoreCeilingIsPerFigureMachine)
{
    // A core count beyond the figure's machine provisioning must fail
    // in grid construction with a clear message, never as a Machine
    // assert deep inside a sweep worker.
    SweepGridOptions opts;
    opts.coreCounts = {128};
    EXPECT_THROW(buildFigureGrid("scale64", opts), std::runtime_error);
    EXPECT_THROW(buildFigureGrid("scale", opts), std::runtime_error);
    EXPECT_THROW(buildFigureGrid("queue", opts), std::runtime_error);
    try {
        buildFigureGrid("scale64", opts);
        FAIL() << "over-provisioned core count did not throw";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("128"), std::string::npos);
        EXPECT_NE(msg.find("scale256"), std::string::npos); // the fix
    }
    opts.coreCounts = {256};
    EXPECT_FALSE(buildFigureGrid("scale256", opts).empty());
}

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

TEST(SweepGrid, Scale256SeedsArePinnedAcrossCoherenceModesAndCores)
{
    // A broadcast cell and its directory twin (and every core count)
    // replay the identical operation stream: any traffic or cycle
    // difference between them is the interconnect, not reseeded noise.
    const auto cells = buildFigureGrid("scale256");
    for (const SweepCell &a : cells) {
        for (const SweepCell &b : cells) {
            if (a.backend == b.backend && a.workload == b.workload) {
                EXPECT_EQ(a.scale.seed, b.scale.seed);
            }
        }
    }
}

TEST(SweepReport, Scale256EmitsDirectoryCountersOnlyInDirectoryMode)
{
    SweepGridOptions opts;
    opts.coreCounts = {1};
    opts.workloads = {WorkloadKind::Sps};
    opts.txs = 20;
    const auto cells = buildFigureGrid("scale256", opts);
    ASSERT_EQ(cells.size(), 6u); // 2 modes x 3 backends
    const auto results = runSweep(cells, 1);
    const Json report =
        Json::parse(sweepReport("scale256", results).dump(2));
    for (std::size_t i = 0; i < report["cells"].size(); ++i) {
        const Json &c = report["cells"].at(i);
        ASSERT_TRUE(c["ok"].asBool()) << c["label"].asString();
        // Every scale256 cell names its interconnect and reports the
        // message count — the broadcast-vs-directory comparison axis.
        ASSERT_TRUE(c.has("coherence"));
        const bool directory = c["coherence"].asString() == "directory";
        const Json &m = c["metrics"];
        EXPECT_TRUE(m.has("coherence_messages"));
        // Directory-only counters exist iff the cell ran the directory.
        EXPECT_EQ(m.has("directory_lookups"), directory);
        EXPECT_EQ(m.has("hop_traversal_cycles"), directory);
        EXPECT_EQ(m.has("snoop_filter_evictions"), directory);
        EXPECT_EQ(m.has("back_invalidations"), directory);
    }

    // Legacy broadcast grids carry neither the coordinate nor the
    // counters, keeping their checked-in reports byte-identical.
    const auto smoke = runSweep(buildFigureGrid("smoke"), 1);
    const Json smoke_report =
        Json::parse(sweepReport("smoke", smoke).dump(2));
    EXPECT_FALSE(smoke_report["cells"].at(0).has("coherence"));
    EXPECT_FALSE(
        smoke_report["cells"].at(0)["metrics"].has("coherence_messages"));
}

TEST(SweepReplay, Scale256DirectoryCellsMatchCheckedInReport)
{
    // Directory-mode Hash-Rand, every design: on one core the snoop
    // filter overflows and back-invalidates (drained after fills, while
    // L1 hits skip the drain), and at 128 cores every store hit pays a
    // directory transaction on the mesh.
    SweepGridOptions opts;
    opts.workloads = {WorkloadKind::HashRand};
    opts.coreCounts = {1, 128};
    std::vector<SweepCell> cells;
    for (const SweepCell &cell : buildFigureGrid("scale256", opts)) {
        if (cell.coherenceMode == CoherenceMode::Directory)
            cells.push_back(cell);
    }
    ASSERT_EQ(cells.size(), 6u);
    expectReplaysCheckedIn("scale256", cells);
}

TEST(SweepSchema, Scale256CheckedInReportPairsModesAndDirectoryWins)
{
    // Every checked-in interconnect cell names its coherence model and
    // its message count; the directory-only counters exist exactly on
    // directory cells; every (workload, design, cores) point has both
    // modes; and on every contended (Zipf, >= 128 cores) pair the
    // directory moves strictly less traffic than the broadcast bus —
    // the grid's headline claim.
    const Json doc = ssp::test::loadCheckedIn("BENCH_scale256.json");
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
    const Json smoke = ssp::test::loadCheckedIn("BENCH_smoke.json");
    for (std::size_t i = 0; i < smoke["cells"].size(); ++i) {
        const Json &c = smoke["cells"].at(i);
        EXPECT_FALSE(c.has("coherence")) << c["label"].asString();
        EXPECT_FALSE(c["metrics"].has("coherence_messages"))
            << c["label"].asString();
    }
}

TEST(SweepRunner, Scale256CellsAreDeterministicAcrossJobs)
{
    SweepGridOptions opts;
    opts.coreCounts = {1, 4};
    opts.workloads = {WorkloadKind::Sps};
    opts.backends = {BackendKind::Ssp};
    opts.txs = 40;
    const auto cells = buildFigureGrid("scale256", opts);
    ASSERT_EQ(cells.size(), 4u); // 2 core counts x 2 modes
    const auto serial = runSweep(cells, 1);
    const auto parallel = runSweep(cells, 3);
    const Json a = sweepReport("scale256", serial);
    const Json b = sweepReport("scale256", parallel);
    EXPECT_EQ(a.dump(2), b.dump(2));
}

} // namespace
} // namespace ssp::sweep::test
