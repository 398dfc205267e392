#include "costmodel/memory_model.h"

#include <stdexcept>

namespace spotserve {
namespace cost {

MemoryModel::MemoryModel(const model::ModelSpec &spec,
                         const CostParams &params)
    : spec_(spec), params_(params)
{
}

int
MemoryModel::bottleneckLayers(const par::ParallelConfig &config) const
{
    // Topology::stageLayers splits as evenly as possible with earlier
    // stages taking the remainder, so the largest stage holds ceil(L/P)
    // layers.  Sizing the average L/P instead over-promises on exactly
    // the GPU that binds whenever L % P != 0.
    return (spec_.numLayers() + config.pp - 1) / config.pp;
}

double
MemoryModel::weightShardBytes(const par::ParallelConfig &config) const
{
    return spec_.layerWeightBytes() * bottleneckLayers(config) / config.tp;
}

double
MemoryModel::kvCacheBytes(const par::ParallelConfig &config,
                          const SeqSpec &seq) const
{
    const double tokens = seq.inputLen + seq.outputLen;
    // The bottleneck stage holds its ceil(L/P) layers' K/V for all B
    // requests, sharded M ways.
    return config.batch * spec_.kvBytesPerTokenPerLayer() *
           bottleneckLayers(config) * tokens / config.tp;
}

double
MemoryModel::steadyBytes(const par::ParallelConfig &config,
                         const SeqSpec &seq) const
{
    return weightShardBytes(config) + kvCacheBytes(config, seq) +
           params_.workspaceBytes;
}

double
MemoryModel::migrationReserveBytes(const par::ParallelConfig &config,
                                   bool mem_opt_planner) const
{
    if (mem_opt_planner)
        return params_.migrationBufferBytes;
    // Without Algorithm 2's ordering, a receiver may hold its entire old
    // shard while the full new shard streams in: double buffering.
    return weightShardBytes(config);
}

bool
MemoryModel::fits(const par::ParallelConfig &config, const SeqSpec &seq,
                  bool mem_opt_planner) const
{
    return steadyBytes(config, seq) +
               migrationReserveBytes(config, mem_opt_planner) <=
           params_.gpu.memBytes;
}

long
MemoryModel::kvBudgetTokens(const par::ParallelConfig &config,
                            bool mem_opt_planner) const
{
    // Bytes left for KV on each GPU of the bottleneck stage; one cached
    // token costs that stage ceil(L/P) layers' K/V sharded M ways, and
    // the other (smaller) stages see strictly less per token.
    const double free_per_gpu =
        params_.gpu.memBytes - weightShardBytes(config) -
        params_.workspaceBytes -
        migrationReserveBytes(config, mem_opt_planner);
    if (free_per_gpu <= 0.0)
        return 0;
    const double tokens =
        free_per_gpu * config.tp /
        (spec_.kvBytesPerTokenPerLayer() * bottleneckLayers(config));
    // Floor with an epsilon so a config sitting exactly on the fits()
    // frontier keeps its full B * (S_in + S_out) tokens despite
    // floating-point round-off (the budget must never be stricter than
    // the fixed-B capacity of a feasible config).
    return static_cast<long>(tokens + 1e-6);
}

long
MemoryModel::kvBudgetBlocks(const par::ParallelConfig &config,
                            int block_tokens, bool mem_opt_planner) const
{
    if (block_tokens < 1)
        throw std::invalid_argument(
            "MemoryModel::kvBudgetBlocks: block_tokens must be >= 1");
    // A paged allocator can only hand out whole blocks: floor, never
    // round up (the final partial block's tokens are real slack a real
    // allocator cannot serve).
    return kvBudgetTokens(config, mem_opt_planner) / block_tokens;
}

int
MemoryModel::minGpus(bool mem_opt_planner) const
{
    // Table 1's minimum is for a *serving* deployment: it must hold the
    // KV cache of a full batch (B = 8), over the practical stage counts.
    int best = 0;
    const SeqSpec seq{};
    for (int pp : {1, 2, 3, 4, 6, 8}) {
        for (int tp : {1, 2, 4, 8}) {
            par::ParallelConfig c{1, pp, tp, 8};
            if (spec_.numLayers() < pp)
                continue;
            if (!fits(c, seq, mem_opt_planner))
                continue;
            if (best == 0 || c.totalGpus() < best)
                best = c.totalGpus();
        }
    }
    return best;
}

} // namespace cost
} // namespace spotserve
