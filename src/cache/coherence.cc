#include "cache/coherence.hh"

#include "interconnect/directory.hh"

namespace ssp
{

std::unique_ptr<CoherenceModel>
makeCoherenceModel(unsigned num_cores, const CoherenceParams &params)
{
    if (params.mode == CoherenceMode::Directory)
        return std::make_unique<DirectoryCoherence>(num_cores, params);
    return std::make_unique<BroadcastCoherence>(num_cores);
}

} // namespace ssp
