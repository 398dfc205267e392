/**
 * @file
 * Context-migration time estimation.
 *
 * Context migration moves model-context (weight shards) and cache-context
 * (KV) tensors between GPUs over NCCL send/recv (§5).  The dominant cost is
 * the per-instance NIC: each instance can send and receive concurrently,
 * so the transfer phase is bottlenecked by the most-loaded instance port.
 * Intra-instance moves ride PCIe and are accounted separately.
 */

#ifndef SPOTSERVE_COSTMODEL_MIGRATION_COST_H
#define SPOTSERVE_COSTMODEL_MIGRATION_COST_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "costmodel/cost_params.h"

namespace spotserve {
namespace cost {

/** One tensor movement between two GPUs' context daemons. */
struct Transfer
{
    int srcInstance = 0;
    int dstInstance = 0;
    double bytes = 0.0;
};

/** Estimates migration wall-clock time for a set of transfers. */
class MigrationCostModel
{
  public:
    explicit MigrationCostModel(const CostParams &params);

    /**
     * Wall-clock time for @p transfers to complete assuming perfect
     * pipelining across distinct instance pairs, i.e. the bottleneck is
     * max over instances of bytes in / NIC, bytes out / NIC, and
     * intra-instance bytes / PCIe, plus the fixed setup cost.
     * Exactly migrationSetupTime + wireTime(transfers).
     */
    double transferTime(const std::vector<Transfer> &transfers) const;

    /**
     * The port-bottleneck wire time alone, without the fixed setup cost —
     * callers composing multi-step schedules (the planner's serialized
     * cursor, a reference bound for the link schedule) charge setup exactly
     * once themselves instead of subtracting it back out per step.
     */
    double wireTime(const std::vector<Transfer> &transfers) const;

    const CostParams &params() const { return params_; }

  private:
    CostParams params_;
};

} // namespace cost
} // namespace spotserve

#endif // SPOTSERVE_COSTMODEL_MIGRATION_COST_H
