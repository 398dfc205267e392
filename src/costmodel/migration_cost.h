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
#include <utility>
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

/**
 * One step of movement work: the migration planner's per-layer (or
 * cache) transfer list plus the per-instance cold bytes that must come
 * from disk because no live replica holds them.
 */
struct TransferStep
{
    /** Cache step (layer < 0) or model-context layer index; tag only. */
    int layer = -1;
    std::vector<Transfer> transfers;
    /** (instance, bytes) cold loads riding this step's disk links. */
    std::vector<std::pair<int, double>> coldLoads;
};

/** Estimates migration wall-clock time for a set of transfers. */
class MigrationCostModel
{
  public:
    explicit MigrationCostModel(const CostParams &params);

    /**
     * Wall-clock time for @p transfers to cross the wire assuming perfect
     * pipelining across distinct instance pairs, i.e. the bottleneck is
     * max over instances of bytes in / NIC, bytes out / NIC, and
     * intra-instance bytes / PCIe.  No setup cost: callers composing
     * multi-step schedules charge it exactly once themselves.
     */
    double wireTime(const std::vector<Transfer> &transfers) const;

    /**
     * The serialized cursor over @p steps: migrationSetupTime charged
     * once, then every step's wireTime back to back, with each
     * instance's cold loads queued on its own disk from the setup on and
     * overlapped with the wire.  The link schedule (LinkSchedule) never
     * exceeds it; tests and bench_ablation_migration compare against it,
     * and nothing on the serving path computes it.
     */
    double serializedDuration(const std::vector<TransferStep> &steps) const;

    const CostParams &params() const { return params_; }

  private:
    CostParams params_;
};

} // namespace cost
} // namespace spotserve

#endif // SPOTSERVE_COSTMODEL_MIGRATION_COST_H
