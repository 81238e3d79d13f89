#include "workloads/sps.hh"

#include "common/logging.hh"

namespace ssp
{

SpsWorkload::SpsWorkload(AtomicityBackend &be, PersistAlloc &alloc,
                         std::uint64_t num_elements, std::uint64_t seed)
    : Workload(be, alloc), numElements_(num_elements), rng_(seed)
{
    ssp_assert(num_elements >= 2);
}

Addr
SpsWorkload::elemAddr(std::uint64_t idx) const
{
    return base_ + idx * sizeof(std::uint64_t);
}

void
SpsWorkload::setup()
{
    const Machine::SetupPhase phase(backend().machine());
    base_ = alloc_.allocate(numElements_ * sizeof(std::uint64_t),
                            kLineSize);
    reference_.resize(numElements_);
    for (std::uint64_t i = 0; i < numElements_; ++i) {
        reference_[i] = i;
        std::uint64_t v = i;
        backend().storeRaw(elemAddr(i), &v, sizeof(v));
    }
}

void
SpsWorkload::runOp(CoreId core)
{
    const std::uint64_t a = rng_.nextBounded(numElements_);
    std::uint64_t b = rng_.nextBounded(numElements_);
    if (a == b)
        b = (b + 1) % numElements_;

    runTx(core, [&] {
        const std::uint64_t va = heap_.load64(core, elemAddr(a));
        const std::uint64_t vb = heap_.load64(core, elemAddr(b));
        heap_.store64(core, elemAddr(a), vb);
        heap_.store64(core, elemAddr(b), va);
    });

    std::swap(reference_[a], reference_[b]);
}

bool
SpsWorkload::verify()
{
    for (std::uint64_t i = 0; i < numElements_; ++i) {
        if (heap_.raw64(elemAddr(i)) != reference_[i])
            return false;
    }
    return true;
}

} // namespace ssp
