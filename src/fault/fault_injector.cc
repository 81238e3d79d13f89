#include "fault/fault_injector.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ssp::fault
{

namespace
{

/**
 * Unreliability the fault rate implies: the same environment that
 * crashes machines drops packets, scaled down (a rate-20 cell loses
 * 10% of transmissions) and capped so retransmission always converges
 * quickly against the 16-retry forced delivery.
 */
shard::NetworkFaultParams
netFaultsFor(double rate_per_mcycle)
{
    shard::NetworkFaultParams p;
    p.lossRate = std::min(0.1, rate_per_mcycle / 200.0);
    p.delayRate = p.lossRate;
    return p;
}

} // namespace

FaultInjector::FaultInjector(shard::Cluster &cluster,
                             const FaultParams &params,
                             std::uint64_t net_seed,
                             double cross_fraction)
    : cluster_(cluster), plan_(params, cluster.machines()),
      replicate_(params.replicate), crossFraction_(cross_fraction),
      recoveryCost_(recoverInPlaceCycles(cluster.machine(0).cfg())),
      armed_(cluster.machines()), hadFault_(cluster.machines(), false),
      firstFaultCommits_(cluster.machines(), 0)
{
    if (params.ratePerMcycle > 0) {
        cluster.network().enableFaults(netFaultsFor(params.ratePerMcycle),
                                       net_seed);
    }
    ssp_assert(failoverCycles() < recoveryCost_,
               "failover must beat in-place recovery");
}

Cycles
FaultInjector::sendReliable(unsigned src, unsigned dst,
                            std::uint64_t bytes)
{
    return cluster_.network().sendReliable(src, dst, bytes);
}

Cycles
FaultInjector::persistDecision(unsigned, CoreId)
{
    ++stats_.decisionRecords;
    return kDecisionPersistCycles;
}

Cycles
FaultInjector::shipCommit(unsigned machine, CoreId)
{
    if (!replicate_)
        return 0;
    // The backup of machine m sits at pseudo-id machines+m: same fabric
    // pricing, never a shard peer.  Synchronous shipping — the commit
    // waits for the ack, which is what keeps the backup current enough
    // to promote without a log scan.
    shard::NetworkModel &net = cluster_.network();
    const unsigned backup = cluster_.machines() + machine;
    const Cycles cost = net.messageCost(machine, backup, kShipBytes) +
                        net.messageCost(backup, machine, kShipAckBytes);
    stats_.logShipMessages += 2;
    stats_.logShipCycles += cost;
    return cost;
}

bool
FaultInjector::coordinatorCrashArmed(unsigned home)
{
    return armed_[home].set &&
           armed_[home].kind == FaultKind::CoordinatorCrash;
}

void
FaultInjector::failCoordinator(unsigned home, unsigned peer, CoreId core)
{
    ++stats_.coordinatorCrashes;
    ++stats_.presumedAborts;
    armed_[home].set = false;
    const Cycles t_up = failMachine(home);
    // The participant resolves its in-doubt branch by re-querying the
    // coordinator's decision log once the machine is back — one query
    // plus one reply, instead of blocking on the decision forever.
    Machine &pm = cluster_.machine(peer);
    pm.clock(core) = std::max(pm.clock(core), t_up) +
                     sendReliable(peer, home, kQueryBytes) +
                     sendReliable(home, peer, shard::kDecisionBytes);
}

bool
FaultInjector::participantCrashArmed(unsigned peer)
{
    return armed_[peer].set &&
           armed_[peer].kind == FaultKind::ParticipantCrash;
}

void
FaultInjector::failParticipant(unsigned peer, CoreId)
{
    ++stats_.participantCrashes;
    armed_[peer].set = false;
    failMachine(peer);
}

Cycles
FaultInjector::voteTimeout()
{
    stats_.rpcTimeoutStallCycles += shard::kRpcTimeout;
    return shard::kRpcTimeout;
}

void
FaultInjector::atSlotStart()
{
    for (unsigned m = 0; m < cluster_.machines(); ++m) {
        Machine &machine = cluster_.machine(m);
        while (plan_.due(m, machine.maxClock())) {
            FaultKind kind = plan_.peek(m).kind;
            // Window kinds need a cross-shard transaction to consume
            // them; degrade to a plain power-fail when none can happen,
            // so a scheduled fault never silently disappears.
            if (cluster_.machines() == 1 || crossFraction_ <= 0)
                kind = FaultKind::PowerFail;
            if (kind == FaultKind::PowerFail) {
                plan_.advance(m);
                failMachine(m);
                continue;
            }
            if (armed_[m].set)
                break; // one pending window fault per machine
            armed_[m].set = true;
            armed_[m].kind = kind;
            plan_.advance(m);
            break;
        }
    }
}

Cycles
FaultInjector::failMachine(unsigned m)
{
    ++stats_.powerFails;
    noteFirstFault(m);
    cluster_.powerFail(m);
    Machine &machine = cluster_.machine(m);
    const Cycles down = replicate_ ? failoverCycles() : recoveryCost_;
    if (replicate_) {
        ++stats_.failovers;
        stats_.failoverStallCycles += down;
    } else {
        ++stats_.recoveries;
        stats_.recoveryStallCycles += down;
    }
    const Cycles t_up = machine.maxClock() + down;
    for (CoreId c = 0; c < machine.cfg().numCores; ++c)
        machine.clock(c) = t_up;
    // A machine that is down cannot fail again: drop events that fall
    // inside the outage, which also stops downtime from compounding.
    plan_.absorbUntil(m, t_up);
    return t_up;
}

void
FaultInjector::noteFirstFault(unsigned m)
{
    if (hadFault_[m])
        return;
    hadFault_[m] = true;
    firstFaultCommits_[m] = cluster_.shard(m).backend->committedTxs();
}

void
FaultInjector::atRunEnd()
{
    for (unsigned m = 0; m < cluster_.machines(); ++m) {
        // The whole point of the harness: after every injected fault,
        // the persistent image still matches the reference model.
        ssp_assert(cluster_.shard(m).workload->verify(),
                   "shard failed functional verification after faults");
        if (hadFault_[m]) {
            stats_.committedDespiteFaults +=
                cluster_.shard(m).backend->committedTxs() -
                firstFaultCommits_[m];
        }
    }
    const shard::NetworkModel &net = cluster_.network();
    stats_.messagesLost = net.messagesLost();
    stats_.rpcRetries = net.rpcRetries();
    stats_.rpcTimeoutStallCycles += net.timeoutStallCycles();
}

} // namespace ssp::fault
