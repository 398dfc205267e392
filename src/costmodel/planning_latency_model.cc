#include "costmodel/planning_latency_model.h"

#include <algorithm>

namespace spotserve {
namespace cost {

double
PlanningLatencyModel::chooseConfigTime(std::size_t candidates,
                                       std::size_t cold_evals) const
{
    cold_evals = std::min(cold_evals, candidates);
    return static_cast<double>(cold_evals) * candidateEvalTime +
           static_cast<double>(candidates - cold_evals) *
               candidateLookupTime;
}

double
PlanningLatencyModel::mapperTime(int instances, int slots,
                                 bool every_replica_kept) const
{
    if (instances <= 0 || slots <= 0)
        return 0.0;
    if (every_replica_kept) {
        // No solve: each kept replica's slots are bound in one pass.
        return static_cast<double>(slots) * slotPairTime;
    }
    const double n = static_cast<double>(std::max(instances, slots));
    return n * n * n * matchingUnitTime +
           static_cast<double>(instances) * static_cast<double>(slots) *
               slotPairTime;
}

double
PlanningLatencyModel::plannerTime(int layers, int snapshot_gpus) const
{
    if (layers <= 0)
        return 0.0;
    // The per-position source search scans the snapshot for every layer
    // slice; at least one unit per layer even on an empty snapshot.
    return static_cast<double>(layers) *
           static_cast<double>(std::max(snapshot_gpus, 1)) * plannerUnitTime;
}

double
PlanningLatencyModel::totalTime(std::size_t candidates,
                                std::size_t cold_evals, int instances,
                                int slots, bool every_replica_kept,
                                int layers, int snapshot_gpus) const
{
    return fixedOverhead + chooseConfigTime(candidates, cold_evals) +
           mapperTime(instances, slots, every_replica_kept) +
           plannerTime(layers, snapshot_gpus);
}

} // namespace cost
} // namespace spotserve
