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
 * Pipeline add/drop is synchronous by construction: there is no
 * reconfiguration to plan or migrate, and surviving pipelines are simply
 * never touched.  It is the §6.1 comparison point for SpotServe's
 * overlapped pipeline.
 */

#ifndef SPOTSERVE_BASELINES_REROUTING_SYSTEM_H
#define SPOTSERVE_BASELINES_REROUTING_SYSTEM_H

#include <deque>
#include <memory>
#include <optional>
#include <unordered_set>

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

    /** The locked parallelism, once chosen. */
    std::optional<par::ParallelConfig> fixedParallelism() const
    {
        return fixed_;
    }

    /** Currently online pipelines. */
    int onlinePipelines() const;

    /** Live KV block references summed over the slot pipelines' stores. */
    long liveKvRefs() const override;

  protected:
    void onPipelineIdle(engine::InferencePipeline &pipeline) override;
    void handleArrival(const wl::Request &request) override;
    void dispatchPending() override { dispatchSlots(); }
    /** Rerouting keeps its pipelines in slots, not the deployment. */
    long bestPrefixDiscount(
        const engine::ActiveRequest &head) const override;

  private:
    /** One independent inference pipeline over whole instances. */
    struct Slot
    {
        std::vector<cluster::InstanceId> members;
        std::unique_ptr<engine::InferencePipeline> pipeline;
        bool online = false;
    };

    /** Lock (P, M, B) on first use. */
    void ensureFixedConfig();

    /** Build pipelines out of pooled instances while enough are idle. */
    void assemble();

    /** Kill every slot using @p id; reroute its requests. */
    void dropSlotsUsing(cluster::InstanceId id);

    /** Dispatch queued requests to online idle slots. */
    void dispatchSlots();

    /** Instances per pipeline under the fixed parallelism. */
    int instancesPerPipeline() const;

    ReroutingOptions options_;
    core::ParallelizationController controller_;

    std::optional<par::ParallelConfig> fixed_;
    std::vector<std::unique_ptr<Slot>> slots_;
    std::deque<cluster::InstanceId> pool_;

    /**
     * Last pipeline role (0..instancesPerPipeline-1) each instance served;
     * an instance is warm for a role only if it held the same role before
     * (its resident shards match).  Any other placement reloads from
     * storage.
     */
    std::unordered_map<cluster::InstanceId, int> lastRole_;

    int nextSlotIndex_ = 0;
};

} // namespace baselines
} // namespace spotserve

#endif // SPOTSERVE_BASELINES_REROUTING_SYSTEM_H
