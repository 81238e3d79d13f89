#include "sim/metrics.hh"

#include <algorithm>
#include <type_traits>

#include "common/logging.hh"
#include "sweep/sweep_runner.hh"

namespace ssp
{

namespace
{

Machine &
machineOf(Experiment &exp)
{
    return exp.backend->machine();
}

std::uint64_t
writes(Experiment &exp, WriteCategory category)
{
    return machineOf(exp).bus().nvramWrites(category);
}

const CoherenceModel &
coherence(Experiment &exp)
{
    return machineOf(exp).coherence();
}

const ConflictStats &
conflicts(Experiment &exp)
{
    return machineOf(exp).conflicts().stats();
}

/** @{ Cell-level sources: a 2PC, network or fault-harness count, and a
 *  per-shard series of a RunResult count. */
template <auto Field>
Json
twoPc(const sweep::CellResult &r)
{
    return Json::number(r.shardTx.*Field);
}

template <auto Field>
Json
net(const sweep::CellResult &r)
{
    return Json::number(r.*Field);
}

template <auto Field>
Json
faultCount(const sweep::CellResult &r)
{
    return Json::number(r.faultStats.*Field);
}

template <auto Field>
Json
perShard(const sweep::CellResult &r)
{
    Json out = Json::array();
    for (const RunResult &shard : r.shardRuns)
        out.push(Json::number(shard.*Field));
    return out;
}
/** @} */

template <typename T>
T
combine(Rollup rollup, T RunResult::*field,
        const std::vector<RunResult> &shards)
{
    T out = 0;
    for (const RunResult &s : shards)
        out = rollup == Rollup::Max ? std::max(out, s.*field)
                                    : out + s.*field;
    if (rollup == Rollup::Mean) {
        if constexpr (std::is_floating_point_v<T>)
            out /= static_cast<T>(shards.size());
        else
            ssp_panic("Rollup::Mean of an integer metric");
    }
    return out;
}

template <class... F>
struct Overloaded : F...
{
    using F::operator()...;
};

} // namespace

const std::vector<Metric> &
metricList()
{
    using R = RunResult;
    using F = fault::FaultStats;
    using T = shard::ShardTxStats;
    using sweep::CellResult;
    constexpr Rollup kMax = Rollup::Max;
    constexpr Rollup kMean = Rollup::Mean;
    constexpr Rollup kSum = Rollup::Sum;
    static const std::vector<Metric> list = {
        // Throughput and NVRAM write traffic (Figs 5-7).
        {"committed_txs", &R::committedTxs, kSum,
         [](Experiment &e) { return e.backend->committedTxs(); }},
        {"cycles", &R::cycles, kMax,
         [](Experiment &e) { return machineOf(e).maxClock(); }},
        {"tps", &R::tps},
        {"writes_per_tx", &R::writesPerTx},
        {"avg_cycles_per_tx", &R::cyclesPerTx},
        {"nvram_writes", &R::nvramWrites, kSum,
         [](Experiment &e) { return machineOf(e).bus().nvramWrites(); }},
        {"logging_writes", &R::loggingWrites, kSum,
         [](Experiment &e) { return e.backend->loggingWrites(); }},
        {"data_writes", &R::dataWrites, kSum,
         [](Experiment &e) {
             return writes(e, WriteCategory::Data) +
                    writes(e, WriteCategory::PageCopy);
         }},
        {"consolidation_writes", &R::consolidationWrites, kSum,
         [](Experiment &e) {
             return writes(e, WriteCategory::Consolidation);
         }},
        {"checkpoint_writes", &R::checkpointWrites, kSum,
         [](Experiment &e) { return writes(e, WriteCategory::Checkpoint); }},
        {"journal_writes", &R::journalWrites, kSum,
         [](Experiment &e) {
             return e.backend->loggingWrites() -
                    writes(e, WriteCategory::Checkpoint);
         }},
        // Write-set characterization (Table 3), read at run end.
        {"avg_lines_per_tx", &R::avgLinesPerTx, kMean},
        {"avg_pages_per_tx", &R::avgPagesPerTx, kMean},
        {"max_pages_per_tx", &R::maxPagesPerTx, kMax},
        // Per-core work and coherence traffic.
        {"core_busy_cycles", &R::coreBusyCycles},
        {"core_txs", &R::coreTxs},
        {"imbalance", &R::imbalance},
        {"coherence_flips", &R::coherenceFlips, kSum,
         [](Experiment &e) { return coherence(e).flipMessages(); }},
        {"coherence_invalidations", &R::coherenceInvalidations, kSum,
         [](Experiment &e) { return coherence(e).invalidations(); }},
        {"coherence_shootdowns", &R::coherenceShootdowns, kSum,
         [](Experiment &e) { return coherence(e).shootdownsDelivered(); }},
        {"coherence_messages", &R::coherenceMessages, kSum,
         [](Experiment &e) { return coherence(e).messages(); }},
        {"directory_lookups", &R::directoryLookups, kSum,
         [](Experiment &e) { return coherence(e).directoryLookups(); }},
        {"hop_traversal_cycles", &R::hopTraversalCycles, kSum,
         [](Experiment &e) { return coherence(e).hopTraversalCycles(); }},
        {"snoop_filter_evictions", &R::snoopFilterEvictions, kSum,
         [](Experiment &e) { return coherence(e).snoopFilterEvictions(); }},
        {"back_invalidations", &R::backInvalidations, kSum,
         [](Experiment &e) { return coherence(e).backInvalidations(); }},
        // Conflict handling.
        {"tx_aborts", &R::txAborts, kSum,
         [](Experiment &e) { return conflicts(e).aborts; }},
        {"tx_retries", &R::txRetries, kSum,
         [](Experiment &e) { return conflicts(e).retries; }},
        {"conflicts_write_write", &R::conflictsWriteWrite, kSum,
         [](Experiment &e) { return conflicts(e).writeWriteConflicts; }},
        {"conflicts_read_write", &R::conflictsReadWrite, kSum,
         [](Experiment &e) { return conflicts(e).readWriteConflicts; }},
        {"backoff_cycles", &R::backoffCycles, kSum,
         [](Experiment &e) { return conflicts(e).backoffCycles; }},
        // 2PC and the cluster network (src/shard/).
        {"single_shard_txs", twoPc<&T::singleShardTxs>},
        {"cross_shard_txs", twoPc<&T::crossShardTxs>},
        {"prepare_round_trips", twoPc<&T::prepareRoundTrips>},
        {"cross_shard_aborts", twoPc<&T::crossShardAborts>},
        {"coordinator_stall_cycles", twoPc<&T::coordinatorStallCycles>},
        {"network_messages", net<&CellResult::networkMessages>},
        {"network_cycles", net<&CellResult::networkCycles>},
        {"shard_cycles", perShard<&R::cycles>},
        {"shard_committed_txs", perShard<&R::committedTxs>},
        // The fault harness and replication (src/fault/).
        {"injected_power_fails", faultCount<&F::powerFails>},
        {"coordinator_crashes", faultCount<&F::coordinatorCrashes>},
        {"participant_crashes", faultCount<&F::participantCrashes>},
        {"recoveries", faultCount<&F::recoveries>},
        {"failovers", faultCount<&F::failovers>},
        {"recovery_stall_cycles", faultCount<&F::recoveryStallCycles>},
        {"failover_stall_cycles", faultCount<&F::failoverStallCycles>},
        {"presumed_aborts", faultCount<&F::presumedAborts>},
        {"decision_records", faultCount<&F::decisionRecords>},
        {"messages_lost", faultCount<&F::messagesLost>},
        {"rpc_retries", faultCount<&F::rpcRetries>},
        {"rpc_timeout_stall_cycles", faultCount<&F::rpcTimeoutStallCycles>},
        {"committed_despite_faults", faultCount<&F::committedDespiteFaults>},
        {"log_ship_messages", faultCount<&F::logShipMessages>},
        {"log_ship_cycles", faultCount<&F::logShipCycles>},
        // Open-loop serving (src/serve/), filled by the server.
        {"p50_cycles", &R::p50Cycles, kMax},
        {"p99_cycles", &R::p99Cycles, kMax},
        {"p999_cycles", &R::p999Cycles, kMax},
        {"mean_queue_depth", &R::meanQueueDepth, kMean},
        {"rejected_txs", &R::rejectedTxs, kSum},
        {"offered_load", &R::offeredLoad, kMean},
    };
    return list;
}

Json
metricValue(const Metric &metric, const sweep::CellResult &cell)
{
    const RunResult &run = cell.run;
    return std::visit(
        Overloaded{
            [&](std::uint64_t RunResult::*f) { return Json::number(run.*f); },
            [&](double RunResult::*f) { return Json::number(run.*f); },
            [&](std::vector<std::uint64_t> RunResult::*f) {
                Json out = Json::array();
                for (std::uint64_t v : run.*f)
                    out.push(Json::number(v));
                return out;
            },
            [&](double (RunResult::*f)() const) {
                return Json::number((run.*f)());
            },
            [&](Json (*f)(const sweep::CellResult &)) { return f(cell); },
        },
        metric.source);
}

void
rollUp(const Metric &metric, RunResult &agg,
       const std::vector<RunResult> &shards)
{
    std::visit(
        Overloaded{
            [&](std::uint64_t RunResult::*f) {
                agg.*f = combine(metric.rollup, f, shards);
            },
            [&](double RunResult::*f) {
                agg.*f = combine(metric.rollup, f, shards);
            },
            [&](std::vector<std::uint64_t> RunResult::*f) {
                ssp_assert(metric.rollup == Rollup::Sum,
                           "per-core series roll up by sum");
                // Every shard ran the same cores: sum index by index.
                std::vector<std::uint64_t> &out = agg.*f;
                out = shards[0].*f;
                for (std::size_t s = 1; s < shards.size(); ++s) {
                    for (std::size_t i = 0; i < out.size(); ++i)
                        out[i] += (shards[s].*f)[i];
                }
            },
            [](auto) {},
        },
        metric.source);
}

} // namespace ssp
