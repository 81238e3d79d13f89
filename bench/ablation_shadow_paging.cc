/**
 * @file
 * Ablation A1: conventional page-granularity shadow paging vs SSP.
 *
 * The paper excludes conventional shadow paging from its figures with an
 * analytic argument ("transactions only touch 2-6 cache lines on
 * average; conventional shadow paging degrades performance by writing up
 * to 64x more cache lines", section 5.1).  This bench measures that
 * claim directly with the SHADOW backend.
 */

#include "bench/bench_common.hh"

using namespace ssp;
using namespace ssp::bench;

int
main()
{
    setVerbose(false);
    SspConfig cfg = sweep::paperConfig(1);
    printHeader("Ablation A1: conventional shadow paging (SHADOW) vs SSP",
                cfg);

    TextTable table({"workload", "SHADOW writes/tx", "SSP writes/tx",
                     "amplification", "SHADOW TPS/SSP TPS"});
    for (WorkloadKind w : microbenchmarks()) {
        RunResult shadow = runCell(BackendKind::Shadow, w, cfg);
        RunResult ssp = runCell(BackendKind::Ssp, w, cfg);
        table.addRow({workloadKindName(w),
                      fmtDouble(shadow.writesPerTx(), 1),
                      fmtDouble(ssp.writesPerTx(), 1),
                      fmtDouble(shadow.writesPerTx() / ssp.writesPerTx(),
                                1) +
                          "x",
                      fmtDouble(shadow.tps() / ssp.tps())});
    }
    std::printf("%s\n", table.render().c_str());
    printPaperNote("conventional shadow paging copies whole pages, "
                   "writing up to 64x more cache lines than the 2-6 a "
                   "transaction actually modifies — which is why the "
                   "paper develops cache-line-granular shadow sub-paging "
                   "instead");
    return 0;
}
