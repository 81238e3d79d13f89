#include "shard/cluster.hh"

#include "common/logging.hh"
#include "common/rng.hh"

namespace ssp::shard
{

namespace
{

/**
 * Ordinal base separating shard workload streams from the sweep
 * machinery's other derived streams (cell ordinals are small, the
 * arrival stream uses 101 and the routing stream 211): shard m >= 1
 * draws deriveSeed ordinal 6999 + m.
 */
constexpr std::uint64_t kShardSeedOrdinalBase = 6999;

} // namespace

std::uint64_t
Cluster::shardSeed(std::uint64_t base_seed, unsigned machine)
{
    if (machine == 0)
        return base_seed;
    return deriveSeed(base_seed, kShardSeedOrdinalBase + machine);
}

Cluster::Cluster(BackendKind backend_kind, WorkloadKind workload_kind,
                 const SspConfig &cfg, const WorkloadScale &scale,
                 unsigned machines)
{
    ssp_assert(machines >= 1, "a cluster needs at least one machine");
    shards_.reserve(machines);
    for (unsigned m = 0; m < machines; ++m) {
        WorkloadScale shard_scale = scale;
        shard_scale.seed = shardSeed(scale.seed, m);
        shards_.push_back(buildExperiment(backend_kind, workload_kind,
                                          cfg, shard_scale));
    }
}

unsigned
Cluster::shardOf(std::uint64_t key) const
{
    return static_cast<unsigned>(splitmix64(key) % shards_.size());
}

void
Cluster::powerFail(unsigned m)
{
    ssp_assert(m < shards_.size(), "powerFail on a machine outside the "
                                   "cluster");
    shards_[m].backend->crash();
    shards_[m].backend->recover();
}

} // namespace ssp::shard
