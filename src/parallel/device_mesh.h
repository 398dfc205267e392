/**
 * @file
 * Binding between logical mesh positions and physical GPUs.
 *
 * Physical GPUs are identified by a global integer id; the cluster module
 * maps ids onto instances (4 GPUs per g4dn.12xlarge instance).  A DeviceMesh
 * is the materialized output of the device mapper: for a given parallel
 * configuration it records which GPU serves which (d, p, m) position.
 */

#ifndef SPOTSERVE_PARALLEL_DEVICE_MESH_H
#define SPOTSERVE_PARALLEL_DEVICE_MESH_H

#include <vector>

#include "parallel/parallel_config.h"

namespace spotserve {
namespace par {

/** Global physical GPU identifier. */
using GpuId = int;

constexpr GpuId kInvalidGpu = -1;

/**
 * Assignment of physical GPUs to every position of a configuration.
 */
class DeviceMesh
{
  public:
    /** Build an unassigned mesh for @p config over @p num_layers layers. */
    DeviceMesh(const ParallelConfig &config, int num_layers);

    const ParallelConfig &config() const { return topology_.config(); }
    const Topology &topology() const { return topology_; }

    /** Bind @p gpu to @p pos (replacing any previous binding of pos). */
    void assign(const Position &pos, GpuId gpu);

    /** GPU at @p pos, or kInvalidGpu when unbound. */
    GpuId gpuAt(const Position &pos) const;

    /** Position of @p gpu; throws if the GPU is not part of the mesh. */
    Position positionOf(GpuId gpu) const;

    /** True when @p gpu is bound somewhere in the mesh. */
    bool contains(GpuId gpu) const;

    /** All bound GPUs in flat position order. */
    std::vector<GpuId> gpus() const;

    /** GPUs serving pipeline @p d, in (p, m) order. */
    std::vector<GpuId> pipelineGpus(int d) const;

  private:
    Topology topology_;
    std::vector<GpuId> byIndex_;
    /** GpuId -> flat position index, -1 when unbound. */
    std::vector<int> indexOfGpu_;
};

} // namespace par
} // namespace spotserve

#endif // SPOTSERVE_PARALLEL_DEVICE_MESH_H
