/**
 * @file
 * Closed-form test oracles: the formulas the library's schedules and
 * mappings are checked against, computed from the library's public
 * pieces.
 */

#ifndef SPOTSERVE_TESTS_CLOSED_FORMS_H
#define SPOTSERVE_TESTS_CLOSED_FORMS_H

#include <vector>

#include "costmodel/latency_model.h"
#include "costmodel/migration_cost.h"
#include "parallel/device_mesh.h"

namespace spotserve {

/** Every position of @p mesh is bound to a GPU. */
inline bool
meshComplete(const par::DeviceMesh &mesh)
{
    const par::Topology &topo = mesh.topology();
    for (int i = 0; i < topo.size(); ++i) {
        if (mesh.gpuAt(topo.position(i)) == par::kInvalidGpu)
            return false;
    }
    return true;
}

/**
 * One step of @p transfers on its own: the fixed setup plus the
 * port-bottleneck wire time (0 when nothing moves).
 */
inline double
transferTime(const cost::MigrationCostModel &model,
             const std::vector<cost::Transfer> &transfers)
{
    if (transfers.empty())
        return 0.0;
    return model.params().migrationSetupTime + model.wireTime(transfers);
}

/**
 * Cold-start time for a deployment: engine relaunch plus every instance
 * loading its resident weight shards from disk/S3 in parallel.
 */
inline double
coldLoadTime(const cost::LatencyModel &latency,
             const par::ParallelConfig &config)
{
    const cost::CostParams &params = latency.params();
    return params.engineRestartTime +
           latency.coldLoadBytesPerInstance(config) / params.diskBandwidth;
}

} // namespace spotserve

#endif // SPOTSERVE_TESTS_CLOSED_FORMS_H
