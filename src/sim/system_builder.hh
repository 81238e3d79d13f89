/**
 * @file
 * Builds a complete experiment: a backend (one of the four designs), an
 * allocator over its persistent heap, and a workload — then runs the
 * setup phase.
 */

#ifndef SSP_SIM_SYSTEM_BUILDER_HH
#define SSP_SIM_SYSTEM_BUILDER_HH

#include <memory>

#include "baselines/backend_factory.hh"
#include "core/config.hh"
#include "workloads/workload_factory.hh"

namespace ssp
{

/** One ready-to-run experiment instance. */
struct Experiment
{
    std::unique_ptr<AtomicityBackend> backend;
    std::unique_ptr<PersistAlloc> alloc;
    std::unique_ptr<Workload> workload;
};

/**
 * Construct backend + allocator + workload and run Workload::setup().
 * The drivers capture their measurement baseline when the run starts
 * (captureRunBaseline in sim/driver.hh).
 */
Experiment buildExperiment(BackendKind backend_kind,
                           WorkloadKind workload_kind, const SspConfig &cfg,
                           const WorkloadScale &scale);

} // namespace ssp

#endif // SSP_SIM_SYSTEM_BUILDER_HH
