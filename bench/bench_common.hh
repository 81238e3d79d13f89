/**
 * @file
 * Shared infrastructure for the ablation benches, which run
 * configurations no sweep grid defines: a run helper on the Table 2
 * machine and printing of paper-expected vs. measured values.
 */

#ifndef SSP_BENCH_BENCH_COMMON_HH
#define SSP_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "sim/driver.hh"
#include "sim/report.hh"
#include "sim/system_builder.hh"
#include "sweep/sweep_grid.hh"

namespace ssp::bench
{

/** Transactions measured per cell (after the setup/prefill phase). */
inline constexpr std::uint64_t kMeasuredTxs = sweep::kDefaultTxs;

/** Build + run one single-core (backend, workload) cell. */
inline RunResult
runCell(BackendKind backend, WorkloadKind workload, const SspConfig &cfg)
{
    auto exp = buildExperiment(backend, workload, cfg, sweep::paperScale());
    return runExperiment(exp, kMeasuredTxs, 1);
}

/** Print the bench header with the simulated machine parameters. */
inline void
printHeader(const std::string &title, const SspConfig &cfg)
{
    const MemSystemParams ms = cfg.memSystem();
    std::printf("%s", banner(title).c_str());
    std::printf("machine: %u core(s), 3.7 GHz | L1 32KiB/L2 256KiB/L3 "
                "12MiB | DTLB %u | NVRAM (%s) read/write %llu/%llu "
                "cycles x%u ch | DRAM %llu/%llu cycles x%u ch | %s "
                "interleave\n\n",
                cfg.numCores, cfg.tlbEntries, ms.nvram.name.c_str(),
                static_cast<unsigned long long>(ms.nvram.readLatency),
                static_cast<unsigned long long>(ms.nvram.writeLatency),
                ms.nvramChannels,
                static_cast<unsigned long long>(ms.dram.readLatency),
                static_cast<unsigned long long>(ms.dram.writeLatency),
                ms.dramChannels,
                interleaveGranularityName(ms.interleave));
}

/** Paper-reported reference line for side-by-side comparison. */
inline void
printPaperNote(const std::string &note)
{
    std::printf("paper reference: %s\n\n", note.c_str());
}

} // namespace ssp::bench

#endif // SSP_BENCH_BENCH_COMMON_HH
