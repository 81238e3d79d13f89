/**
 * @file
 * Design-space explorer: run any workload under any failure-atomicity
 * design and print the cost metrics side by side.
 *
 *   ./design_explorer [workload] [txs]
 *   ./design_explorer RBTree-Zipf 8000
 *
 * Workload names follow the paper's Table 3 ("BTree-Rand",
 * "RBTree-Zipf", "Hash-Rand", "SPS", "Memcached", "Vacation", ...).
 * txs is a plain integer in 1..10^9; a bad workload name or count
 * exits 2.
 */

#include <cstdio>
#include <exception>
#include <string>

#include "common/logging.hh"
#include "sim/driver.hh"
#include "sim/report.hh"
#include "sim/system_builder.hh"
#include "sweep/sweep_grid.hh"

using namespace ssp;

int
main(int argc, char **argv)
try {
    setVerbose(false);
    const std::string workload_name =
        argc > 1 ? argv[1] : "BTree-Rand";
    const std::uint64_t txs =
        argc > 2 ? sweep::parseCount("txs", argv[2], 1'000'000'000) : 4000;

    const WorkloadKind workload = parseWorkloadKind(workload_name);
    SspConfig cfg;
    cfg.heapPages = 1 << 15;
    cfg.shadowPoolPages = 2048;
    cfg.logPages = 8192;
    WorkloadScale scale;
    scale.keySpace = 16384;

    std::printf("%s", banner("design explorer: " + workload_name + ", " +
                             std::to_string(txs) + " transactions")
                          .c_str());

    TextTable table({"design", "TPS (K)", "cycles/tx", "NVRAM wr/tx",
                     "logging wr/tx", "avg lines/tx", "avg pages/tx"});
    for (BackendKind kind :
         {BackendKind::UndoLog, BackendKind::RedoLog, BackendKind::Ssp,
          BackendKind::Shadow}) {
        auto exp = buildExperiment(kind, workload, cfg, scale);
        RunResult res = runExperiment(exp, txs, 1);
        if (!exp.workload->verify()) {
            std::printf("!! %s failed functional verification\n",
                        backendKindName(kind));
            return 1;
        }
        table.addRow(
            {res.backend, fmtDouble(res.tps() / 1000.0, 1),
             fmtDouble(res.cyclesPerTx(), 0),
             fmtDouble(res.writesPerTx(), 1),
             fmtDouble(static_cast<double>(res.loggingWrites) /
                           static_cast<double>(res.committedTxs),
                       1),
             fmtDouble(res.avgLinesPerTx, 1),
             fmtDouble(res.avgPagesPerTx, 1)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\n(all four designs produced functionally identical "
                "persistent images)\n");
    return 0;
} catch (const std::exception &e) {
    // ssp_fatal (a bad workload name or txs count) throws.
    std::fprintf(stderr, "design_explorer: %s\n", e.what());
    return 2;
}
