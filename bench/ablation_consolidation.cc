/**
 * @file
 * Ablation A2: consolidation traffic vs TLB reach.
 *
 * SSP's eager consolidation policy fires whenever a page falls out of
 * the TLB, so the TLB size directly controls how well redundant writes
 * are batched (sections 3.4 and 5.2: "the number of transactions is
 * much higher than the number of TLB evictions", and zipfian workloads
 * avoid premature consolidation of hot pages).  This bench sweeps the
 * DTLB from 16 to 256 entries and reports consolidation writes per
 * transaction for a random and a zipfian workload.
 */

#include "bench/bench_common.hh"

using namespace ssp;
using namespace ssp::bench;

int
main()
{
    setVerbose(false);
    SspConfig base = sweep::paperConfig(1);
    printHeader("Ablation A2: consolidation writes/tx vs TLB entries",
                base);

    TextTable table({"TLB entries", "RBTree-Rand", "RBTree-Zipf",
                     "Hash-Rand", "Hash-Zipf"});
    for (unsigned entries : {16u, 32u, 64u, 128u, 256u}) {
        SspConfig cfg = sweep::paperConfig(1);
        cfg.tlbEntries = entries;
        cfg.shadowPoolPages =
            cfg.numCores * entries + cfg.sspCacheOverprovision + 512;
        std::vector<std::string> row{std::to_string(entries)};
        for (WorkloadKind w :
             {WorkloadKind::RbTreeRand, WorkloadKind::RbTreeZipf,
              WorkloadKind::HashRand, WorkloadKind::HashZipf}) {
            RunResult res = runCell(BackendKind::Ssp, w, cfg);
            row.push_back(fmtDouble(
                static_cast<double>(res.consolidationWrites) /
                    static_cast<double>(res.committedTxs),
                2));
        }
        table.addRow(std::move(row));
    }
    std::printf("%s\n", table.render().c_str());
    printPaperNote("larger TLBs batch more commits per consolidation; "
                   "zipfian workloads keep hot pages TLB-resident and "
                   "consolidate far less than random ones at equal reach");
    return 0;
}
