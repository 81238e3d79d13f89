/**
 * @file
 * Parallel sweep CLI: reproduce any figure/table grid of the evaluation
 * in one invocation, print the paper's tables for it, and emit the
 * machine-readable BENCH_<figure>.json perf report.
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

#include "common/logging.hh"
#include "sweep/figure_spec.hh"
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
    std::string figures;
    std::size_t line = 0;
    for (const std::string &name : knownFigures()) {
        if (line + name.size() > 56) {
            figures += "\n                    ";
            line = 0;
        }
        figures += " " + name;
        line += name.size() + 1;
    }
    std::fprintf(stderr,
                 "usage: sweep_main --figure <name> [options]\n"
                 "\n"
                 "  --figure NAME      grid to run (required):\n"
                 "                    %s\n"
                 "                     (fig5 also prints Figs 6 and 7)\n"
                 "  --backends LIST    comma-separated subset of ssp,undo,"
                 "redo,\n"
                 "                     shadow (default: the figure's own "
                 "set)\n"
                 "  --workloads LIST   comma-separated subset of Table 3 "
                 "names\n"
                 "                     (e.g. BTree-Rand,SPS; default: "
                 "all)\n"
                 "  --jobs N           worker threads, 1..%u (default 1);\n"
                 "                     results are bit-identical for any N\n"
                 "  --txs N            transactions per cell, 1..%llu\n"
                 "                     (default: the figure's own count)\n"
                 "  --seed N           base RNG seed, 0..2^64-1 (default "
                 "42)\n"
                 "  --json PATH        output path (default "
                 "BENCH_<figure>.json)\n"
                 "  --quiet            suppress per-cell progress lines\n"
                 "  --list             print known figures and exit\n"
                 "\n"
                 "Each grid is one fixed experiment: its axis points (cores,\n"
                 "channels, loads, machines, fault rates) are set by its\n"
                 "FigureSpec in src/sweep/figure_spec.cc.\n",
                 figures.c_str(), kMaxJobs,
                 static_cast<unsigned long long>(kMaxTxs));
    std::exit(exit_code);
}

struct CliArgs
{
    std::string figure;
    SweepGridOptions grid;
    unsigned jobs = 1;
    std::string jsonPath;
    bool quiet = false;
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
        } else if (arg == "--jobs") {
            // parseCount is fatal on anything but a plain integer in
            // range: "4x", "0" and "-1" exit 2 instead of running.
            args.jobs = static_cast<unsigned>(
                parseCount(arg, next_value(i), kMaxJobs));
        } else if (arg == "--txs") {
            args.grid.txs = parseCount(arg, next_value(i), kMaxTxs);
        } else if (arg == "--seed") {
            // Digits only, like parseCount, but 0 is a valid seed:
            // "4x" and "-1" exit 2 instead of running seed 4 or 2^64-1.
            args.grid.scale.seed = parseSeed(next_value(i));
        } else if (arg == "--json") {
            args.jsonPath = next_value(i);
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

    const Json report = sweepReport(args.figure, results);
    std::printf("%s", renderPaperTables(report).c_str());
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
    // ssp_fatal (bad figure/backend/workload names, a bad count) throws;
    // turn it into a clean CLI error instead of std::terminate.
    std::fprintf(stderr, "sweep_main: %s\n", e.what());
    return 2;
}
