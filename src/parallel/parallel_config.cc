#include "parallel/parallel_config.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace spotserve {
namespace par {

std::string
ParallelConfig::str() const
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "(D=%d, P=%d, M=%d, B=%d)",
                  dp, pp, tp, batch);
    return buf;
}

std::string
ParallelConfig::shortStr() const
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "(%d,%d,%d)", dp, pp, tp);
    return buf;
}

std::string
Position::str() const
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "(d=%d, p=%d, m=%d)", d, p, m);
    return buf;
}

Topology::Topology(const ParallelConfig &config, int num_layers)
    : config_(config), numLayers_(num_layers)
{
    if (!config.valid())
        throw std::invalid_argument("Topology: invalid config " + config.str());
    if (num_layers < config.pp)
        throw std::invalid_argument("Topology: more stages than layers");
}

Position
Topology::position(int flat_index) const
{
    if (flat_index < 0 || flat_index >= size())
        throw std::out_of_range("Topology::position: bad flat index");
    Position pos;
    pos.m = flat_index % config_.tp;
    pos.p = (flat_index / config_.tp) % config_.pp;
    pos.d = flat_index / (config_.tp * config_.pp);
    return pos;
}

int
Topology::flatIndex(const Position &pos) const
{
    if (pos.d < 0 || pos.d >= config_.dp || pos.p < 0 || pos.p >= config_.pp ||
        pos.m < 0 || pos.m >= config_.tp) {
        throw std::out_of_range("Topology::flatIndex: bad position");
    }
    return (pos.d * config_.pp + pos.p) * config_.tp + pos.m;
}

std::pair<int, int>
Topology::stageLayers(int p) const
{
    if (p < 0 || p >= config_.pp)
        throw std::out_of_range("Topology::stageLayers: bad stage");
    const int base = numLayers_ / config_.pp;
    const int extra = numLayers_ % config_.pp;
    // Stages [0, extra) take base+1 layers, the rest take base.
    const int first = p * base + std::min(p, extra);
    const int count = base + (p < extra ? 1 : 0);
    return {first, first + count};
}

int
Topology::stageOfLayer(int layer) const
{
    if (layer < 0 || layer >= numLayers_)
        throw std::out_of_range("Topology::stageOfLayer: bad layer");
    for (int p = 0; p < config_.pp; ++p) {
        auto [first, last] = stageLayers(p);
        if (layer >= first && layer < last)
            return p;
    }
    // Unreachable: stageLayers partitions [0, numLayers).
    throw std::logic_error("Topology::stageOfLayer: layer not covered");
}

std::pair<double, double>
Topology::shardInterval(int m) const
{
    if (m < 0 || m >= config_.tp)
        throw std::out_of_range("Topology::shardInterval: bad shard");
    const double width = 1.0 / config_.tp;
    return {m * width, (m + 1) * width};
}

double
shardOverlapFraction(int m, int M, int m2, int M2)
{
    if (m < 0 || m >= M || m2 < 0 || m2 >= M2)
        throw std::out_of_range("shardOverlapFraction: bad shard index");
    const double lo = std::max(static_cast<double>(m) / M,
                               static_cast<double>(m2) / M2);
    const double hi = std::min(static_cast<double>(m + 1) / M,
                               static_cast<double>(m2 + 1) / M2);
    return std::max(0.0, hi - lo);
}

} // namespace par
} // namespace spotserve
