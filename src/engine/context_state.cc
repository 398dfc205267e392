#include "engine/context_state.h"

#include <algorithm>
#include <tuple>

namespace spotserve {
namespace engine {

namespace {

/** Number of layers in [a0,a1) ∩ [b0,b1). */
int
layerIntersection(std::pair<int, int> a, std::pair<int, int> b)
{
    return std::max(0, std::min(a.second, b.second) -
                           std::max(a.first, b.first));
}

} // namespace

HeldContext::HeldContext(const GpuContext &held, int num_layers)
    : ctx(&held)
{
    if (!held.hasModelContext)
        return;
    const par::Topology topo(held.config, num_layers);
    std::tie(firstLayer, lastLayer) = topo.stageLayers(held.position.p);
    std::tie(shardLo, shardHi) = topo.shardInterval(held.position.m);
}

ContextIndex::ContextIndex(const ContextSnapshot &snapshot, int num_layers)
{
    entries_.reserve(snapshot.gpus.size());
    par::GpuId max_gpu = par::kInvalidGpu;
    for (const auto &g : snapshot.gpus) {
        entries_.emplace_back(g, num_layers);
        max_gpu = std::max(max_gpu, g.gpu);
    }

    // Backwards, so the first entry for a GPU id is the one kept.
    entryOfGpu_.assign(static_cast<std::size_t>(max_gpu + 1), -1);
    for (std::size_t i = entries_.size(); i-- > 0;) {
        const par::GpuId gpu = entries_[i].ctx->gpu;
        if (gpu >= 0)
            entryOfGpu_[gpu] = static_cast<int>(i);
    }

    // Holder lists change only where some entry's layer range starts or
    // ends, so layers are grouped into segments between those cuts and
    // each segment stores one list: a counting sort of (segment, entry)
    // pairs, which keeps every list in snapshot order.
    segmentOfLayer_.assign(static_cast<std::size_t>(num_layers), 0);
    std::vector<bool> cut(static_cast<std::size_t>(num_layers) + 1, false);
    for (const auto &e : entries_) {
        cut[e.firstLayer] = true;
        cut[e.lastLayer] = true;
    }
    int segments = 0;
    for (int l = 0; l < num_layers; ++l) {
        if (l > 0 && cut[l])
            ++segments;
        segmentOfLayer_[l] = segments;
    }
    ++segments;
    segmentStart_.assign(static_cast<std::size_t>(segments) + 1, 0);
    for (const auto &e : entries_) {
        if (e.firstLayer == e.lastLayer)
            continue;
        for (int s = segmentOfLayer_[e.firstLayer];
             s <= segmentOfLayer_[e.lastLayer - 1]; ++s)
            ++segmentStart_[s + 1];
    }
    for (int s = 0; s < segments; ++s)
        segmentStart_[s + 1] += segmentStart_[s];
    holderList_.resize(segmentStart_[segments]);
    std::vector<int> next(segmentStart_.begin(), segmentStart_.end() - 1);
    for (const auto &e : entries_) {
        if (e.firstLayer == e.lastLayer)
            continue;
        for (int s = segmentOfLayer_[e.firstLayer];
             s <= segmentOfLayer_[e.lastLayer - 1]; ++s)
            holderList_[next[s]++] = &e;
    }
}

const HeldContext *
ContextIndex::find(par::GpuId gpu) const
{
    if (gpu < 0 || gpu >= static_cast<par::GpuId>(entryOfGpu_.size()))
        return nullptr;
    const int i = entryOfGpu_[gpu];
    return i < 0 ? nullptr : &entries_[i];
}

std::span<const HeldContext *const>
ContextIndex::holders(int layer) const
{
    const int s = segmentOfLayer_[layer];
    return {holderList_.data() + segmentStart_[s],
            holderList_.data() + segmentStart_[s + 1]};
}

double
modelOverlapBytes(const model::ModelSpec &spec, const HeldContext &held,
                  const par::Topology &target,
                  const par::Position &target_pos)
{
    const GpuContext &ctx = *held.ctx;
    if (!ctx.hasModelContext)
        return 0.0;
    const int common = layerIntersection({held.firstLayer, held.lastLayer},
                                         target.stageLayers(target_pos.p));
    if (common == 0)
        return 0.0;
    const double frac = par::shardOverlapFraction(
        ctx.position.m, ctx.config.tp, target_pos.m, target.config().tp);
    return common * spec.layerWeightBytes() * frac;
}

double
cacheOverlapBytes(const model::ModelSpec &spec, const HeldContext &held,
                  const par::Topology &target,
                  const par::Position &target_pos)
{
    const GpuContext &ctx = *held.ctx;
    if (!ctx.hasModelContext || ctx.cacheTokens <= 0.0)
        return 0.0;
    const int common = layerIntersection({held.firstLayer, held.lastLayer},
                                         target.stageLayers(target_pos.p));
    if (common == 0)
        return 0.0;
    const double frac = par::shardOverlapFraction(
        ctx.position.m, ctx.config.tp, target_pos.m, target.config().tp);
    return ctx.cacheTokens * spec.kvBytesPerTokenPerLayer() * common * frac;
}

double
neededModelBytes(const model::ModelSpec &spec, const par::Topology &target,
                 const par::Position &pos)
{
    const auto [first, last] = target.stageLayers(pos.p);
    return (last - first) * spec.layerWeightBytes() / target.config().tp;
}

} // namespace engine
} // namespace spotserve
