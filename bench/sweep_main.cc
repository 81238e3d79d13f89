/**
 * @file
 * Parallel sweep CLI: reproduce any figure/table grid of the evaluation
 * in one invocation and emit the machine-readable BENCH_<figure>.json
 * perf report.
 *
 *   sweep_main --figure fig5 --backends ssp,undo,redo --jobs 8 \
 *              --json BENCH_fig5.json
 *
 * Per-cell results are bit-identical for any --jobs value: every cell
 * owns a deterministic RNG stream and a result slot keyed by its grid
 * position.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "sweep/sweep_runner.hh"

using namespace ssp;
using namespace ssp::sweep;

namespace
{

/** @{ Upper bounds for --jobs and --txs: generous, but finite, so a
 *  mistyped huge count fails up front instead of running for hours. */
constexpr unsigned kMaxJobs = 1024;
constexpr std::uint64_t kMaxTxs = 1'000'000'000;
/** @} */

[[noreturn]] void
usage(int exit_code)
{
    std::fprintf(
        stderr,
        "usage: sweep_main --figure <name> [options]\n"
        "\n"
        "  --figure NAME      grid to run: fig5 fig6 fig7 fig8 fig9\n"
        "                     table3 table45 chan scale scale64\n"
        "                     scale256 queue shard fault smoke\n"
        "                     (required)\n"
        "  --backends LIST    comma-separated subset of ssp,undo,redo,\n"
        "                     shadow (default: the figure's own set)\n"
        "  --workloads LIST   comma-separated subset of Table 3 names\n"
        "                     (e.g. BTree-Rand,SPS; default: all)\n"
        "  --channels LIST    chan grid: NVRAM channel counts to sweep\n"
        "                     (e.g. 1,2,4,8; default: 1,2,4,8)\n"
        "  --cores LIST       scale/scale64/scale256/queue grids: core\n"
        "                     counts to sweep (default: 1,2,4,8 /\n"
        "                     1,2,4,8,16,32,64 / 1,4,16,64,128,256 /\n"
        "                     4,16; scale256 accepts up to 256, the\n"
        "                     other grids' machines cap at 64)\n"
        "  --machines LIST    shard/fault grids: cluster sizes to sweep\n"
        "                     (e.g. 1,2,4; default: 1,2,4,8 for shard,\n"
        "                     1,2,4 for fault)\n"
        "  --fault-rate LIST  fault grid: expected machine failures per\n"
        "                     million cycles per machine (e.g. 0,5,20;\n"
        "                     default: 0,5,20; 0 = armed but quiet)\n"
        "  --replicate MODE   fault grid: primary/backup replication —\n"
        "                     off, on, or both (default: both)\n"
        "  --load LIST        queue grid: offered loads as factors of\n"
        "                     measured closed-loop capacity (default:\n"
        "                     0.3,0.6,0.9,1.2)\n"
        "  --arrival KIND     queue grid: arrival process — poisson\n"
        "                     (default), bursty (MMPP-2) or diurnal\n"
        "  --conflict-mode M  concurrent-conflict handling: fcw\n"
        "                     (first-committer-wins, the default),\n"
        "                     lazy (read-set-only validation), off\n"
        "  --nvram-device D   NVRAM preset for every cell: paper-pcm,\n"
        "                     stt-mram, flash, dram-only (default:\n"
        "                     paper-pcm, the Table 2 device)\n"
        "  --jobs N           worker threads, 1..%u (default 1);\n"
        "                     results are bit-identical for any N\n"
        "  --txs N            transactions per cell, 1..%llu\n"
        "                     (default: the figure's own count)\n"
        "  --seed N           base RNG seed (default 42)\n"
        "  --json PATH        output path (default BENCH_<figure>.json)\n"
        "  --time             emit host wall-clock times (host_ms per\n"
        "                     cell, host_ms_total per grid) into the\n"
        "                     JSON; off by default so checked-in\n"
        "                     reports stay byte-stable\n"
        "  --quiet            suppress per-cell progress lines\n"
        "  --list             print known figures and exit\n",
        kMaxJobs, static_cast<unsigned long long>(kMaxTxs));
    std::exit(exit_code);
}

struct CliArgs
{
    std::string figure;
    SweepGridOptions grid;
    unsigned jobs = 1;
    std::string jsonPath;
    bool time = false;
    bool quiet = false;
    bool arrivalSet = false; ///< --arrival was given explicitly
};

CliArgs
parseArgs(int argc, char **argv)
{
    CliArgs args;
    auto next_value = [&](int &i) -> std::string {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", argv[i]);
            usage(2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--figure") {
            args.figure = next_value(i);
        } else if (arg == "--backends") {
            for (const std::string &name : splitCommas(next_value(i)))
                args.grid.backends.push_back(parseBackendKind(name));
        } else if (arg == "--workloads") {
            for (const std::string &name : splitCommas(next_value(i)))
                args.grid.workloads.push_back(parseWorkloadKind(name));
        } else if (arg == "--channels" || arg == "--cores") {
            // parseCountList is fatal on an empty or invalid list: a
            // bad count sweep must fail loudly, never fall back to the
            // grid's default list and "succeed".  --cores parses up to
            // kMaxCores; the per-figure machine ceiling is checked by
            // buildFigureGrid once the figure is known.
            const bool cores = arg == "--cores";
            auto &list =
                cores ? args.grid.coreCounts : args.grid.channels;
            for (unsigned v : parseCountList(arg, next_value(i),
                                             cores ? kMaxCores : 64))
                list.push_back(v);
        } else if (arg == "--machines") {
            // parseCountList is fatal on an empty or invalid list, like
            // the count lists above.
            for (unsigned v : parseCountList(arg, next_value(i), 64))
                args.grid.machines.push_back(v);
        } else if (arg == "--fault-rate") {
            // parseFaultRateList is fatal on an empty or invalid list,
            // like the count lists above.
            for (double v : parseFaultRateList(arg, next_value(i)))
                args.grid.faultRates.push_back(v);
        } else if (arg == "--replicate") {
            args.grid.replicateModes =
                parseReplicateModes(next_value(i));
        } else if (arg == "--load") {
            // parseLoadList is fatal on an empty or invalid list, like
            // the count lists above.
            for (double v : parseLoadList(arg, next_value(i)))
                args.grid.loads.push_back(v);
        } else if (arg == "--arrival") {
            args.grid.arrival =
                ssp::serve::parseArrivalKind(next_value(i));
            args.arrivalSet = true;
        } else if (arg == "--conflict-mode") {
            args.grid.conflictMode = parseConflictMode(next_value(i));
        } else if (arg == "--nvram-device") {
            args.grid.nvramDevice = parseNvramDevice(next_value(i));
        } else if (arg == "--jobs") {
            // parseCount is fatal on anything but a plain integer in
            // range: "4x", "0" and "-1" exit 2 instead of running.
            args.jobs = static_cast<unsigned>(
                parseCount(arg, next_value(i), kMaxJobs));
        } else if (arg == "--txs") {
            args.grid.txs = parseCount(arg, next_value(i), kMaxTxs);
        } else if (arg == "--seed") {
            args.grid.scale.seed = std::stoull(next_value(i));
        } else if (arg == "--json") {
            args.jsonPath = next_value(i);
        } else if (arg == "--time") {
            args.time = true;
        } else if (arg == "--quiet") {
            args.quiet = true;
        } else if (arg == "--list") {
            for (const std::string &name : knownFigures())
                std::printf("%s\n", name.c_str());
            std::exit(0);
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(2);
        }
    }
    if (args.figure.empty()) {
        std::fprintf(stderr, "--figure is required\n");
        usage(2);
    }
    if (!args.grid.channels.empty() && args.figure != "chan") {
        // Only the chan grid sweeps channel counts; erroring beats
        // silently emitting 1-channel results labeled as a channel run.
        std::fprintf(stderr,
                     "--channels only applies to '--figure chan', not "
                     "'%s'\n",
                     args.figure.c_str());
        usage(2);
    }
    if (!args.grid.coreCounts.empty() && args.figure != "scale" &&
        args.figure != "scale64" && args.figure != "scale256" &&
        args.figure != "queue") {
        std::fprintf(stderr,
                     "--cores only applies to '--figure scale', "
                     "'--figure scale64', '--figure scale256' or "
                     "'--figure queue', not '%s'\n",
                     args.figure.c_str());
        usage(2);
    }
    if (!args.grid.machines.empty() && args.figure != "shard" &&
        args.figure != "fault") {
        std::fprintf(stderr,
                     "--machines only applies to '--figure shard' or "
                     "'--figure fault', not '%s'\n",
                     args.figure.c_str());
        usage(2);
    }
    if ((!args.grid.faultRates.empty() ||
         !args.grid.replicateModes.empty()) &&
        args.figure != "fault") {
        // Only the fault grid arms the injector; erroring beats
        // silently emitting fault-free results labeled as a fault run.
        std::fprintf(stderr,
                     "--fault-rate/--replicate only apply to '--figure "
                     "fault', not '%s'\n",
                     args.figure.c_str());
        usage(2);
    }
    if ((!args.grid.loads.empty() || args.arrivalSet) &&
        args.figure != "queue") {
        std::fprintf(stderr,
                     "--load/--arrival only apply to '--figure queue', "
                     "not '%s'\n",
                     args.figure.c_str());
        usage(2);
    }
    if (args.jsonPath.empty())
        args.jsonPath = "BENCH_" + args.figure + ".json";
    return args;
}

} // namespace

int
main(int argc, char **argv)
try {
    setVerbose(false);
    CliArgs args = parseArgs(argc, argv);

    const std::vector<SweepCell> cells =
        buildFigureGrid(args.figure, args.grid);
    if (cells.empty()) {
        std::fprintf(stderr,
                     "figure '%s': no cells left after filtering\n",
                     args.figure.c_str());
        return 2;
    }
    const std::string summary = "sweep " + args.figure + ": " +
                                std::to_string(cells.size()) + " cell(s), " +
                                std::to_string(args.jobs) + " job(s)";
    std::printf("%s", banner(summary).c_str());

    CellCallback progress;
    if (!args.quiet) {
        progress = [](const CellResult &r, std::size_t done,
                      std::size_t total) {
            std::printf("[%zu/%zu] %-40s %s\n", done, total,
                        r.cell.label().c_str(),
                        r.ok ? "ok" : r.error.c_str());
            std::fflush(stdout);
        };
    }

    const std::vector<CellResult> results =
        runSweep(cells, args.jobs, progress);

    TextTable table({"cell", "tps", "nvram writes", "logging writes",
                     "avg lines/tx"});
    unsigned failures = 0;
    for (const CellResult &r : results) {
        if (!r.ok) {
            ++failures;
            table.addRow({r.cell.label(), "FAILED: " + r.error, "-", "-",
                          "-"});
            continue;
        }
        table.addRow({r.cell.label(), fmtDouble(r.run.tps(), 0),
                      std::to_string(r.run.nvramWrites),
                      std::to_string(r.run.loggingWrites),
                      fmtDouble(r.run.avgLinesPerTx, 1)});
    }
    std::printf("\n%s\n", table.render().c_str());

    const Json report = sweepReport(args.figure, results, args.time);
    std::ofstream out(args.jsonPath);
    if (!out) {
        std::fprintf(stderr, "cannot open '%s' for writing\n",
                     args.jsonPath.c_str());
        return 1;
    }
    out << report.dump(2) << '\n';
    out.close();
    if (!out) {
        std::fprintf(stderr, "write to '%s' failed\n",
                     args.jsonPath.c_str());
        return 1;
    }
    std::printf("wrote %s (%zu cells, %u failed)\n",
                args.jsonPath.c_str(), results.size(), failures);

    return failures == 0 ? 0 : 1;
} catch (const std::exception &e) {
    // ssp_fatal (bad figure/backend/workload names) throws; turn it
    // into a clean CLI error instead of std::terminate.
    std::fprintf(stderr, "sweep_main: %s\n", e.what());
    return 2;
}
