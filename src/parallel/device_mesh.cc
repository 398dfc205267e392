#include "parallel/device_mesh.h"

#include <stdexcept>

namespace spotserve {
namespace par {

DeviceMesh::DeviceMesh(const ParallelConfig &config, int num_layers)
    : topology_(config, num_layers),
      byIndex_(static_cast<std::size_t>(config.totalGpus()), kInvalidGpu)
{
}

void
DeviceMesh::assign(const Position &pos, GpuId gpu)
{
    if (gpu < 0)
        throw std::invalid_argument("DeviceMesh::assign: invalid gpu id");
    if (contains(gpu))
        throw std::invalid_argument("DeviceMesh::assign: gpu already bound");
    const int idx = topology_.flatIndex(pos);
    if (byIndex_[idx] != kInvalidGpu)
        indexOfGpu_[byIndex_[idx]] = -1;
    if (gpu >= static_cast<GpuId>(indexOfGpu_.size()))
        indexOfGpu_.resize(static_cast<std::size_t>(gpu) + 1, -1);
    byIndex_[idx] = gpu;
    indexOfGpu_[gpu] = idx;
}

GpuId
DeviceMesh::gpuAt(const Position &pos) const
{
    return byIndex_[topology_.flatIndex(pos)];
}

Position
DeviceMesh::positionOf(GpuId gpu) const
{
    if (!contains(gpu))
        throw std::out_of_range("DeviceMesh::positionOf: unknown gpu");
    return topology_.position(indexOfGpu_[gpu]);
}

bool
DeviceMesh::contains(GpuId gpu) const
{
    return gpu >= 0 && gpu < static_cast<GpuId>(indexOfGpu_.size()) &&
           indexOfGpu_[gpu] >= 0;
}

std::vector<GpuId>
DeviceMesh::gpus() const
{
    std::vector<GpuId> out;
    out.reserve(byIndex_.size());
    for (GpuId g : byIndex_) {
        if (g != kInvalidGpu)
            out.push_back(g);
    }
    return out;
}

std::vector<GpuId>
DeviceMesh::pipelineGpus(int d) const
{
    const auto &cfg = config();
    if (d < 0 || d >= cfg.dp)
        throw std::out_of_range("DeviceMesh::pipelineGpus: bad pipeline");
    std::vector<GpuId> out;
    out.reserve(cfg.gpusPerPipeline());
    for (int p = 0; p < cfg.pp; ++p) {
        for (int m = 0; m < cfg.tp; ++m)
            out.push_back(gpuAt(Position{d, p, m}));
    }
    return out;
}

} // namespace par
} // namespace spotserve
