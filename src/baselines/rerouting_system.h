/**
 * @file
 * Request-rerouting baseline (§6.1).
 *
 * Keeps a fixed, pre-defined optimal model-parallel configuration (P, M,
 * B) and only drops/adds whole inference pipelines as availability
 * changes (the MArk/Cocktail-style approach generalised to model
 * parallelism).  When an instance is preempted, every pipeline touching
 * it dies; its interrupted requests are rerouted to the surviving
 * pipelines and recomputed from scratch.  Newly acquired instances
 * rebuild pipelines after a full engine launch and weight load.
 *
 * Every pipeline is a replica of the base Deployment (the fixed (P, M, B)
 * with D = the live replica count), so Rerouting dispatches, admits at
 * iteration boundaries and audits KV exactly like the other two systems;
 * it differs only in *when* replicas are built and dropped.  Each replica
 * owns whole instances, one per pipeline role; a new replica is
 * dispatchable from its Deployment::readyAt.  Surviving replicas are
 * never touched: there is no reconfiguration to plan or migrate.
 */

#ifndef SPOTSERVE_BASELINES_REROUTING_SYSTEM_H
#define SPOTSERVE_BASELINES_REROUTING_SYSTEM_H

#include <deque>
#include <optional>
#include <unordered_map>

#include "core/controller.h"
#include "serving/base_system.h"

namespace spotserve {
namespace baselines {

/** Options for the rerouting baseline. */
struct ReroutingOptions
{
    /** Expected workload rate used to pre-define (P, M, B). */
    double designArrivalRate = 0.0;

    /** Inference-engine knobs (the same struct SpotServe carries). */
    serving::EngineOptions engine{};

    core::ControllerOptions controller{};
};

/** The request-rerouting baseline. */
class ReroutingSystem : public serving::BaseServingSystem
{
  public:
    ReroutingSystem(sim::Executor &executor,
                    cluster::InstanceManager &instances,
                    serving::RequestManager &requests,
                    const model::ModelSpec &spec,
                    const cost::CostParams &params, const cost::SeqSpec &seq,
                    ReroutingOptions options = {});

    std::string name() const override;

    void onInstanceReady(const cluster::Instance &instance) override;
    void onPreemptionNotice(const cluster::Instance &instance,
                            sim::SimTime preempt_at) override;
    void onInstancePreempted(const cluster::Instance &instance) override;
    void onInstanceReleased(const cluster::Instance &instance) override;

  private:
    /** Lock (P, M, B) on first use. */
    void ensureFixedConfig();

    /** Build replicas out of pooled instances while enough are idle. */
    void assemble();

    /** Kill the replica using @p id; reroute its requests. */
    void dropReplicasUsing(cluster::InstanceId id);

    /**
     * Reinstall the deployment as the current replicas whose pipeline
     * is still live (pipelines, GPUs and online times carried over, in
     * order) followed by fresh replicas on @p fresh_gpus, online at
     * @p fresh_ready.  No replica left clears the deployment.
     */
    void redeploy(const std::vector<std::vector<par::GpuId>> &fresh_gpus,
                  const std::vector<sim::SimTime> &fresh_ready);

    /** Instances per pipeline under the fixed parallelism. */
    int instancesPerPipeline() const;

    core::ParallelizationController controller_;
    /** Supplies the rate the fixed configuration is chosen for. */
    core::ReconfigPolicy policy_;

    std::optional<par::ParallelConfig> fixed_;
    std::deque<cluster::InstanceId> pool_;

    /**
     * Last pipeline role (0..instancesPerPipeline-1) each instance served;
     * an instance is warm for a role only if it held the same role before
     * (its resident shards match).  Any other placement reloads from
     * storage.
     */
    std::unordered_map<cluster::InstanceId, int> lastRole_;
};

} // namespace baselines
} // namespace spotserve

#endif // SPOTSERVE_BASELINES_REROUTING_SYSTEM_H
