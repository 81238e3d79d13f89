/**
 * @file
 * Persistent key/value cache scenario — the paper's Memcached use case.
 *
 * Runs a memcached-like store over SSP, injects a power failure in the
 * middle of a SET burst, recovers, and verifies that the store is
 * exactly the committed prefix.  Then compares the same scenario on the
 * undo-logging baseline to show the write-traffic difference.  Exits 1
 * if either post-crash image fails verification.
 */

#include <cstdio>

#include "baselines/backend_factory.hh"
#include "common/logging.hh"
#include "workloads/kvstore.hh"
#include "workloads/persist_alloc.hh"

using namespace ssp;

namespace
{

SspConfig
demoConfig()
{
    SspConfig cfg;
    cfg.heapPages = 8192;
    cfg.shadowPoolPages = 2048;
    cfg.logPages = 2048;
    return cfg;
}

/** Outcome of one crash scenario. */
struct ScenarioResult
{
    bool ok;
    std::uint64_t nvramWrites;
};

ScenarioResult
runScenario(BackendKind kind)
{
    auto be = makeBackend(kind, demoConfig());
    PersistAlloc alloc(kPageSize, 8192ull * kPageSize);
    KvStoreParams params;
    params.buckets = 1024;
    params.keySpace = 4000;
    params.capacity = 2048;
    KvStoreWorkload kv(*be, alloc, params, 7);
    kv.setup();

    // A burst of SETs...
    for (unsigned i = 0; i < 2000; ++i)
        kv.runOp(0);

    // ...then the power fails mid-burst.
    be->crash();
    be->recover();

    const bool ok = kv.verify();
    std::printf("  %-9s resident=%llu evictions=%llu post-crash image: "
                "%s | NVRAM writes=%llu (logging=%llu)\n",
                be->name(),
                static_cast<unsigned long long>(kv.residentItems()),
                static_cast<unsigned long long>(kv.evictions()),
                ok ? "consistent" : "CORRUPT",
                static_cast<unsigned long long>(
                    be->machine().bus().nvramWrites()),
                static_cast<unsigned long long>(be->loggingWrites()));
    return {ok, be->machine().bus().nvramWrites()};
}

} // namespace

int
main()
{
    setVerbose(false);
    std::printf("persistent KV cache: 2000 memslap-style ops, power "
                "failure, recovery, verification\n");
    const ScenarioResult ssp = runScenario(BackendKind::Ssp);
    const ScenarioResult undo = runScenario(BackendKind::UndoLog);
    std::printf("SSP wrote %.1f%% less NVRAM than undo logging for the "
                "same durable work\n",
                100.0 * (1.0 - static_cast<double>(ssp.nvramWrites) /
                                   static_cast<double>(undo.nvramWrites)));
    return ssp.ok && undo.ok ? 0 : 1;
}
