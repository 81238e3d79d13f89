#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "sweep/figure_spec.hh"

namespace ssp::sweep
{

namespace
{

/** A value whose cell the report lacks: filtered out, or failed. */
constexpr double kMissing = std::numeric_limits<double>::quiet_NaN();

/** Metric @p key of the ok cell at these coordinates, or kMissing. */
double
metric(const Json &report, const char *key, BackendKind b, WorkloadKind w,
       unsigned cores = 1, double nvram_mult = 0, double ssp_latency = 0)
{
    const Json &cells = report["cells"];
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Json &c = cells.at(i);
        if (c["ok"].asBool() &&
            c["backend"].asString() == backendKindName(b) &&
            c["workload"].asString() == workloadKindName(w) &&
            c["cores"].asUint() == cores &&
            c["nvram_latency_multiplier"].asDouble() == nvram_mult &&
            c["ssp_cache_fixed_latency"].asDouble() == ssp_latency) {
            return c["metrics"][key].asDouble();
        }
    }
    return kMissing;
}

/** @p num / @p den; kMissing when either is, or when @p den is 0. */
double
ratio(double num, double den)
{
    return den != 0 ? num / den : kMissing;
}

/** How many times SSP's @p ssp the baseline's @p base is. */
double
timesSsp(double ssp, double base)
{
    return ratio(base, ssp);
}

/** How much less SSP's @p ssp is than @p base, in percent. */
double
savedPct(double ssp, double base)
{
    return (1 - ratio(ssp, base)) * 100;
}

/** How much more SSP's @p ssp is than @p base, in percent. */
double
gainPct(double ssp, double base)
{
    return -savedPct(ssp, base);
}

/** "-" for a missing value. */
std::string
fmt(double v, int digits = 2, const char *suffix = "")
{
    return std::isfinite(v) ? fmtDouble(v, digits) + suffix : "-";
}

/** Geometric or arithmetic mean of the values present. */
double
mean(const std::vector<double> &values, bool geometric)
{
    double acc = geometric ? 1 : 0;
    double n = 0;
    for (double v : values) {
        if (std::isfinite(v)) {
            acc = geometric ? acc * v : acc + v;
            ++n;
        }
    }
    if (n == 0)
        return kMissing;
    return geometric ? std::pow(acc, 1 / n) : acc / n;
}

/** The grid's workloads that have cells in the report, in grid order. */
std::vector<WorkloadKind>
reportedWorkloads(const FigureSpec &grid, const Json &report)
{
    std::vector<WorkloadKind> out;
    const Json &cells = report["cells"];
    for (WorkloadKind w : grid.workloads) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (cells.at(i)["workload"].asString() == workloadKindName(w)) {
                out.push_back(w);
                break;
            }
        }
    }
    return out;
}

/** The distinct non-zero values of coordinate @p key, in cell order. */
std::vector<double>
axisValues(const Json &report, const char *key)
{
    std::vector<double> out;
    const Json &cells = report["cells"];
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const double v = cells.at(i)[key].asDouble();
        if (v != 0 && std::find(out.begin(), out.end(), v) == out.end())
            out.push_back(v);
    }
    return out;
}

std::string
section(const std::string &title, const TextTable &table,
        const char *note = nullptr)
{
    std::string out = banner(title) + table.render() + "\n";
    if (note != nullptr)
        out += std::string("paper reference: ") + note + "\n\n";
    return out;
}

/** How a table compares SSP's value of a metric with a baseline's. */
struct Comparison
{
    const char *key;
    const char *columns[2]; ///< against UNDO-LOG, against REDO-LOG
    double (*compare)(double ssp, double base);
    int digits;
    const char *suffix;
    bool geometric; ///< summarize by geometric, not arithmetic, mean
};

/**
 * Per workload: the metric of each paper design normalized to UNDO-LOG,
 * then SSP compared with UNDO-LOG and with REDO-LOG; then a mean row.
 */
std::string
compareDesigns(const std::string &title, const Json &report,
               const std::vector<WorkloadKind> &rows, unsigned cores,
               const Comparison &c, const char *note)
{
    TextTable table({"workload", "UNDO-LOG", "REDO-LOG", "SSP",
                     c.columns[0], c.columns[1]});
    std::vector<double> vs_undo, vs_redo;
    for (WorkloadKind w : rows) {
        double v[3]; // UNDO-LOG, REDO-LOG, SSP
        for (std::size_t d = 0; d < 3; ++d)
            v[d] = metric(report, c.key, paperBackends()[d], w, cores);
        vs_undo.push_back(c.compare(v[2], v[0]));
        vs_redo.push_back(c.compare(v[2], v[1]));
        table.addRow({workloadKindName(w), fmt(ratio(v[0], v[0])),
                      fmt(ratio(v[1], v[0])), fmt(ratio(v[2], v[0])),
                      fmt(vs_undo.back(), c.digits, c.suffix),
                      fmt(vs_redo.back(), c.digits, c.suffix)});
    }
    table.addRow({c.geometric ? "geomean" : "average", "-", "-", "-",
                  fmt(mean(vs_undo, c.geometric), c.digits, c.suffix),
                  fmt(mean(vs_redo, c.geometric), c.digits, c.suffix)});
    return section(title, table, note);
}

} // namespace

std::string
renderFig5(const FigureSpec &grid, const Json &report)
{
    const auto rows = reportedWorkloads(grid, report);
    const char *const notes[] = {
        "Fig 5a: SSP outperforms UNDO-LOG by 1.9x and REDO-LOG by 1.3x on "
        "average (single thread)",
        "Fig 5b: SSP outperforms UNDO-LOG by 2.4x and REDO-LOG by 1.4x on "
        "average (four threads)"};
    std::string out;
    for (std::size_t i = 0; i < grid.cores.size(); ++i) {
        std::string title = "Figure 5";
        title += static_cast<char>('a' + i);
        title += ": TPS normalized to UNDO-LOG (" +
                 std::to_string(grid.cores[i]) +
                 " thread(s), higher is better)";
        out += compareDesigns(
            title, report, rows, grid.cores[i],
            {"tps", {"SSP/UNDO", "SSP/REDO"}, ratio, 2, "", true}, notes[i]);
    }
    out += compareDesigns(
        "Figure 6: logging writes normalized to UNDO-LOG (lower is better)",
        report, rows, 1,
        {"logging_writes", {"UNDO/SSP", "REDO/SSP"}, timesSsp, 1, "",
         false},
        "SSP decreases logging write traffic by 7.6x vs UNDO-LOG and 4.7x "
        "vs REDO-LOG on average; BTree-Rand nearly eliminates logging "
        "writes");
    out += compareDesigns(
        "Figure 7a: total NVRAM writes normalized to UNDO-LOG (lower is "
        "better)",
        report, rows, 1,
        {"nvram_writes", {"saved vs UNDO", "saved vs REDO"}, savedPct, 0,
         "%", false},
        "SSP saves 45% vs UNDO-LOG and 28% vs REDO-LOG on average; "
        "zipfian workloads save more (56%/42%) than random ones (43%/23%)");

    TextTable fig7b({"workload", "data", "journaling", "consolidation",
                     "checkpointing"});
    for (WorkloadKind w : rows) {
        const double total =
            metric(report, "nvram_writes", BackendKind::Ssp, w);
        auto share = [&](const char *key) {
            return fmt(
                ratio(metric(report, key, BackendKind::Ssp, w), total) * 100,
                1);
        };
        fig7b.addRow({workloadKindName(w), share("data_writes"),
                      share("journal_writes"),
                      share("consolidation_writes"),
                      share("checkpoint_writes")});
    }
    return out + section("Figure 7b: breakdown of NVRAM writes for SSP (%)",
                         fig7b,
                         "consolidation writes are below data writes for "
                         "all workloads except SPS, and are negligible "
                         "under zipfian access patterns");
}

std::string
renderFig8(const FigureSpec &grid, const Json &report)
{
    const auto shown = reportedWorkloads(grid, report);
    std::string out;
    for (std::size_t i = 0; i < grid.workloads.size(); ++i) {
        const WorkloadKind w = grid.workloads[i];
        if (std::find(shown.begin(), shown.end(), w) == shown.end())
            continue;
        TextTable table({"latency", "UNDO-LOG", "REDO-LOG", "SSP",
                         "SSP/REDO"});
        for (double mult : axisValues(report, "nvram_latency_multiplier")) {
            double ktps[3]; // UNDO-LOG, REDO-LOG, SSP
            for (std::size_t d = 0; d < 3; ++d) {
                ktps[d] = metric(report, "tps", paperBackends()[d], w, 1,
                                 mult) /
                          1000;
            }
            // Built with += to sidestep a GCC 12 -Wrestrict false
            // positive (PR105651) on `const char * + std::string&&`.
            std::string latency = "x";
            latency += fmtDouble(mult, 0);
            table.addRow({latency, fmt(ktps[0], 1), fmt(ktps[1], 1),
                          fmt(ktps[2], 1), fmt(ratio(ktps[2], ktps[1]))});
        }
        std::string title = "Figure 8";
        title += static_cast<char>('a' + i);
        title += ": ";
        title += workloadKindName(w);
        title += " TPS (K) vs NVRAM latency (x DRAM latency)";
        out += section(title, table);
    }
    return out + "paper reference: the SSP/REDO gap widens with NVRAM "
                 "latency (1.1x -> 1.8x for BTree); at x1 REDO-LOG can "
                 "overtake SSP on RBTree by ~8% because persistence is "
                 "nearly free\n\n";
}

std::string
renderFig9(const FigureSpec &grid, const Json &report)
{
    const auto columns = reportedWorkloads(grid, report);
    std::vector<std::string> header{"latency"};
    for (WorkloadKind w : columns)
        header.emplace_back(workloadKindName(w));
    TextTable table(std::move(header));
    for (double lat : axisValues(report, "ssp_cache_fixed_latency")) {
        std::vector<std::string> row{fmtDouble(lat, 0)};
        for (WorkloadKind w : columns) {
            row.push_back(fmt(
                ratio(metric(report, "tps", BackendKind::Ssp, w, 1, 0, lat),
                      metric(report, "tps", BackendKind::RedoLog, w))));
        }
        table.addRow(std::move(row));
    }
    return section("Figure 9: SSP speedup over REDO-LOG vs SSP-cache "
                   "access latency (cycles)",
                   table,
                   "most workloads degrade only moderately and linearly "
                   "with SSP-cache latency; SPS and Hash-Rand are the most "
                   "sensitive (poor locality -> frequent TLB misses -> "
                   "frequent SSP-cache accesses); zipfian workloads are "
                   "less sensitive than random ones");
}

std::string
renderTable3(const FigureSpec &grid, const Json &report)
{
    // Paper values, in the grid's (Table 3) workload order.
    const char *const paper[] = {"12/3/13", "10/6/21", "3/3/4",
                                 "2/2/2",   "5/2/6",   "6/4/15",
                                 "3/3/4",   "3/2/35",  "4/3/9"};
    TextTable table({"workload", "avg lines", "avg pages", "max pages",
                     "paper (l/p/max)"});
    bool fallback_needed = false;
    for (WorkloadKind w : reportedWorkloads(grid, report)) {
        const auto at =
            std::find(grid.workloads.begin(), grid.workloads.end(), w);
        const BackendKind ssp = BackendKind::Ssp;
        const double max_pages = metric(report, "max_pages_per_tx", ssp, w);
        table.addRow({workloadKindName(w),
                      fmt(metric(report, "avg_lines_per_tx", ssp, w), 1),
                      fmt(metric(report, "avg_pages_per_tx", ssp, w), 1),
                      fmt(max_pages, 0), paper[at - grid.workloads.begin()]});
        fallback_needed = fallback_needed || max_pages > 64;
    }
    return section("Table 3: write-set size (avg lines / avg pages / max "
                   "pages per transaction)",
                   table) +
           "write-set buffer sufficient for all workloads: " +
           (fallback_needed ? "NO" : "yes") +
           " (paper: none of the evaluated applications requires the "
           "unbounded fall-back path)\n\n";
}

std::string
renderTable45(const FigureSpec &grid, const Json &report)
{
    const auto rows = reportedWorkloads(grid, report);
    const unsigned cores = grid.cores.front();
    const std::string clients = " (" + std::to_string(cores) + " clients)";
    return compareDesigns(
               "Table 4: throughput improvement of SSP" + clients, report,
               rows, cores,
               {"tps", {"gain vs UNDO", "gain vs REDO"}, gainPct, 0, "%",
                false},
               "Memcached 75% / 35%, Vacation 27% / 13% (vs UNDO / REDO)") +
           compareDesigns(
               "Table 5: NVRAM write-traffic saving of SSP" + clients,
               report, rows, cores,
               {"nvram_writes", {"saved vs UNDO", "saved vs REDO"}, savedPct,
                0, "%", false},
               "Memcached 49% / 46%, Vacation 38% / 17% (vs UNDO / REDO); "
               "SSP saves 86%/82% of logging writes vs UNDO/REDO on the "
               "real workloads, and Vacation gains less because volatile "
               "execution dominates its runtime");
}

std::string
renderPaperTables(const Json &report)
{
    const FigureSpec *grid = findFigureSpec(report["figure"].asString());
    if (grid == nullptr || grid->render == nullptr)
        return "";
    return grid->render(*grid, report);
}

} // namespace ssp::sweep
