/**
 * @file
 * Reparallelization baseline (§6.1).
 *
 * Changes the parallel configuration like SpotServe — it shares the same
 * Algorithm-1 optimizer (and therefore its memoised, dominance-pruned
 * sweep), so "the configuration of Reparallelization is always
 * consistent with SpotServe" (Figure 8) — but handles preemption
 * reactively and without context migration: every reconfiguration
 * restarts all instances, reloads the model from storage, and recomputes
 * every interrupted request from scratch (the Varuna-style approach).
 * Reconfiguration is deliberately synchronous — no planning phase, no
 * partial drain: the whole deployment stops for the full restart — which
 * is the §6.1 baseline SpotServe's overlapped pipeline is measured
 * against.
 */

#ifndef SPOTSERVE_BASELINES_REPARALLELIZATION_SYSTEM_H
#define SPOTSERVE_BASELINES_REPARALLELIZATION_SYSTEM_H

#include <optional>

#include "core/controller.h"
#include "serving/base_system.h"

namespace spotserve {
namespace baselines {

/** Options shared with the other systems. */
struct ReparallelizationOptions
{
    /** Expected workload rate for the first deployment sizing. */
    double designArrivalRate = 0.0;

    /** Inference-engine knobs (the same struct SpotServe carries). */
    serving::EngineOptions engine{};

    core::ControllerOptions controller{};
};

/** The model-reparallelization baseline. */
class ReparallelizationSystem : public serving::BaseServingSystem
{
  public:
    ReparallelizationSystem(sim::Executor &executor,
                            cluster::InstanceManager &instances,
                            serving::RequestManager &requests,
                            const model::ModelSpec &spec,
                            const cost::CostParams &params,
                            const cost::SeqSpec &seq,
                            ReparallelizationOptions options = {});

    std::string name() const override;

    void onInstanceReady(const cluster::Instance &instance) override;
    void onPreemptionNotice(const cluster::Instance &instance,
                            sim::SimTime preempt_at) override;
    void onInstancePreempted(const cluster::Instance &instance) override;
    void onInstanceReleased(const cluster::Instance &instance) override;

  private:
    enum class Phase
    {
        Steady,     ///< Deployed or not; no restart in flight.
        Restarting,
    };

    void scheduleEval();
    void evaluate();
    void workloadTick();
    void beginRestart(const par::ParallelConfig &target,
                      const std::string &reason);
    void activate();

    core::ParallelizationController controller_;
    /** SpotServe's reconfiguration policy, over this controller. */
    core::ReconfigPolicy policy_;

    Phase phase_ = Phase::Steady;
    bool evalScheduled_ = false;
    bool pendingReconfig_ = false;

    struct PendingRestart
    {
        par::ParallelConfig target;
        std::string reason;
    };
    std::optional<PendingRestart> pending_;
};

} // namespace baselines
} // namespace spotserve

#endif // SPOTSERVE_BASELINES_REPARALLELIZATION_SYSTEM_H
