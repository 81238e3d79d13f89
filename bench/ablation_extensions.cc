/**
 * @file
 * Ablation A3: the paper's section-4.3 / future-work extensions.
 *
 * (a) Sub-page granularity: 64-byte lines (base design, 64-bit bitmaps)
 *     vs 256-byte sub-pages (Optane's preferred persistence unit,
 *     16-bit bitmaps).  Coarser tracking shrinks TLB-entry state and
 *     flip traffic but amplifies copy-on-write and flush units.
 * (b) Consolidation policy: eager (the paper's implementation) vs lazy
 *     (defer until shadow-pool pressure; cancel when a page becomes
 *     active again).
 */

#include "bench/bench_common.hh"
#include "core/ssp_system.hh"

using namespace ssp;
using namespace ssp::bench;

int
main()
{
    setVerbose(false);
    SspConfig base = sweep::paperConfig(1);
    printHeader("Ablation A3: SSP extensions (sub-page granularity, "
                "lazy consolidation)",
                base);

    std::printf("(a) tracking granularity\n");
    TextTable ga({"workload", "64B TPS(K)", "256B TPS(K)",
                  "64B writes/tx", "256B writes/tx", "64B flips/tx",
                  "256B flips/tx"});
    for (WorkloadKind w :
         {WorkloadKind::BTreeRand, WorkloadKind::RbTreeRand,
          WorkloadKind::Sps}) {
        SspConfig fine = sweep::paperConfig(1);
        SspConfig coarse = sweep::paperConfig(1);
        coarse.subPageLines = 4;

        auto fine_exp = buildExperiment(BackendKind::Ssp, w, fine,
                                        sweep::paperScale());
        auto *fine_sys =
            dynamic_cast<SspSystem *>(fine_exp.backend.get());
        const std::uint64_t fine_flips0 =
            fine_sys->machine().coherence().flipMessages();
        RunResult fr = runExperiment(fine_exp, kMeasuredTxs, 1);
        const double fine_flips =
            static_cast<double>(
                fine_sys->machine().coherence().flipMessages() -
                fine_flips0) /
            static_cast<double>(fr.committedTxs);

        auto coarse_exp = buildExperiment(BackendKind::Ssp, w, coarse,
                                          sweep::paperScale());
        auto *coarse_sys =
            dynamic_cast<SspSystem *>(coarse_exp.backend.get());
        const std::uint64_t coarse_flips0 =
            coarse_sys->machine().coherence().flipMessages();
        RunResult cr = runExperiment(coarse_exp, kMeasuredTxs, 1);
        const double coarse_flips =
            static_cast<double>(
                coarse_sys->machine().coherence().flipMessages() -
                coarse_flips0) /
            static_cast<double>(cr.committedTxs);

        ga.addRow({workloadKindName(w), fmtDouble(fr.tps() / 1000.0, 1),
                   fmtDouble(cr.tps() / 1000.0, 1),
                   fmtDouble(fr.writesPerTx(), 1),
                   fmtDouble(cr.writesPerTx(), 1),
                   fmtDouble(fine_flips, 1), fmtDouble(coarse_flips, 1)});
    }
    std::printf("%s\n", ga.render().c_str());

    std::printf("(b) consolidation policy (consolidation writes per tx; "
                "lower is better)\n");
    TextTable gb({"workload", "eager", "lazy", "lazy cancellations/tx"});
    for (WorkloadKind w :
         {WorkloadKind::RbTreeRand, WorkloadKind::RbTreeZipf,
          WorkloadKind::HashRand, WorkloadKind::HashZipf}) {
        SspConfig eager = sweep::paperConfig(1);
        SspConfig lazy = sweep::paperConfig(1);
        lazy.consolidationPolicy = SspConfig::ConsolidationPolicy::Lazy;
        lazy.lazyLowWatermark = 64;

        auto eager_exp =
            buildExperiment(BackendKind::Ssp, w, eager, sweep::paperScale());
        RunResult er = runExperiment(eager_exp, kMeasuredTxs, 1);

        auto lazy_exp =
            buildExperiment(BackendKind::Ssp, w, lazy, sweep::paperScale());
        auto *lazy_sys = dynamic_cast<SspSystem *>(lazy_exp.backend.get());
        RunResult lr = runExperiment(lazy_exp, kMeasuredTxs, 1);
        const double cancels =
            static_cast<double>(
                lazy_sys->controller().canceledConsolidations()) /
            static_cast<double>(lr.committedTxs);

        gb.addRow(
            {workloadKindName(w),
             fmtDouble(static_cast<double>(er.consolidationWrites) /
                           static_cast<double>(er.committedTxs),
                       2),
             fmtDouble(static_cast<double>(lr.consolidationWrites) /
                           static_cast<double>(lr.committedTxs),
                       2),
             fmtDouble(cancels, 2)});
    }
    std::printf("%s\n", gb.render().c_str());
    printPaperNote("section 4.3 argues 256B sub-pages cut the TLB state "
                   "4x; section 3.4 leaves lazy consolidation as future "
                   "work — cancellation on re-activation is where it "
                   "wins");
    return 0;
}
